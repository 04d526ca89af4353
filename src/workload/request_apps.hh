/**
 * @file
 * Request-shaped datacenter application generators, modeled on the
 * receiver-side apps of the TINA stack (KVS get/set, NAT hash lookup,
 * BM25 ranking, KNN distance scans).
 *
 * Unlike the MixWorkload generators — which emit an undifferentiated
 * reference soup — these plan one *request* at a time: a hash-table
 * probe plus a value burst for `kvs`, a flow-table lookup plus header
 * update for `nat`, several postings-list scans with score
 * accumulation for `bm25`, and candidate-vector distance scans for
 * `knn`.  Each generator is a RequestShapedGen that flags the last
 * reference of every request it plans (MemRef::endsRequest), so the
 * open-loop serving layer segments latency accounting at true request
 * ends; under the closed arrival model the System counts none.
 *
 * These names are intentionally NOT part of paperWorkloads(): the
 * 12-workload paper grid stays byte-pinned.  They are reachable via
 * makeWorkload()/workloadInfo() and listed by requestAppWorkloads().
 */

#ifndef TOLEO_WORKLOAD_REQUEST_APPS_HH
#define TOLEO_WORKLOAD_REQUEST_APPS_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/request.hh"

namespace toleo {

/** Names of the request-shaped app generators (grid-usable). */
const std::vector<std::string> &requestAppWorkloads();

/**
 * Build a request-shaped app generator, or nullptr when `name` is not
 * a request app (the caller falls back to the mix-generator table).
 */
std::unique_ptr<TraceGen> makeRequestApp(const std::string &name,
                                         unsigned core,
                                         std::uint64_t seed);

/**
 * Look up a request app's WorkloadInfo; returns false when `name` is
 * not a request app.
 */
bool requestAppInfo(const std::string &name, WorkloadInfo &out);

} // namespace toleo

#endif // TOLEO_WORKLOAD_REQUEST_APPS_HH
