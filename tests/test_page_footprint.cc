/**
 * @file
 * PageFootprint unit test: the RSS set must count each distinct page
 * exactly once wherever in the 64-bit space it lies.  Pages near the
 * top of that space (full-system captures carry kernel-half
 * addresses) must cost one leaf, not memory sized by the page number.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/page_footprint.hh"

using namespace toleo;

TEST(PageFootprint, CountsEachPageOnceAcrossSparseLeaves)
{
    constexpr PageNum leafPages = PageNum{1} << 15; // 128 MiB
    // Page 0, the last page of the 64-bit space, three pages in each
    // of 80 leaves strided through the kernel half (the leaf table
    // starts at 16 slots, so it must grow several times), and a dense
    // run across a leaf edge (every bit of several bitmap words).
    std::vector<PageNum> pages = {0, (PageNum{1} << 52) - 1};
    const PageNum kernel = pageOf(0xffff888000000000ULL);
    for (PageNum leaf = 0; leaf < 80; ++leaf) {
        for (PageNum i = 0; i < 3; ++i)
            pages.push_back(kernel + leaf * 37 * leafPages + i * 1001);
    }
    for (PageNum page = 5 * leafPages - 130; page < 5 * leafPages + 130;
         ++page)
        pages.push_back(page);
    const std::set<PageNum> distinct(pages.begin(), pages.end());
    ASSERT_EQ(distinct.size(), pages.size());

    PageFootprint fp;
    std::uint64_t want = 0;
    for (PageNum page : pages) {
        fp.insert(page);
        EXPECT_EQ(fp.size(), ++want) << page;
    }
    // Repeats, in reverse order too, add nothing.
    for (unsigned rep = 0; rep < 3; ++rep) {
        for (PageNum page : pages)
            fp.insert(page);
        for (auto it = pages.rbegin(); it != pages.rend(); ++it)
            fp.insert(*it);
    }
    EXPECT_EQ(fp.size(), distinct.size());
}
