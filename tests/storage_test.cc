// Tests for the storage layer: PageFile, BufferCache (LRU, pinning, I/O
// stats, confiscation, decoded leaf units), ComponentWriter/Reader
// (leaves, index, metadata, validity, range reads).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/component_file.h"
#include "src/storage/fault_injection_fs.h"
#include "src/storage/file.h"
#include "src/storage/manifest.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 4096;  // small pages keep tests fast

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/lsmcol_" + name + "_" +
         std::to_string(::getpid());
}

TEST(PageFileTest, WriteReadRoundTrip) {
  std::string path = TempPath("pf1");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  std::string a(100, 'a');
  std::string b(kPage, 'b');
  ASSERT_TRUE((*file)->WritePage(0, Slice(a)).ok());
  ASSERT_TRUE((*file)->WritePage(1, Slice(b)).ok());
  EXPECT_EQ((*file)->page_count(), 2u);
  Buffer out;
  ASSERT_TRUE((*file)->ReadPage(0, &out).ok());
  EXPECT_EQ(out.size(), kPage);
  EXPECT_EQ(std::string(out.data(), 100), a);
  EXPECT_EQ(out.data()[100], '\0');  // zero padding
  ASSERT_TRUE((*file)->ReadPage(1, &out).ok());
  EXPECT_EQ(std::string(out.data(), kPage), b);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(PageFileTest, OversizePayloadRejected) {
  std::string path = TempPath("pf2");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  std::string big(kPage + 1, 'x');
  EXPECT_FALSE((*file)->WritePage(0, Slice(big)).ok());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(PageFileTest, ReadPastEndFails) {
  std::string path = TempPath("pf3");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  Buffer out;
  EXPECT_FALSE((*file)->ReadPage(0, &out).ok());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(PageFileTest, OpenNonexistentFails) {
  EXPECT_FALSE(PageFile::Open(TempPath("does_not_exist"), kPage).ok());
}

TEST(PageFileTest, ChecksummedRoundTripAndPhysicalSize) {
  std::string path = TempPath("pf_ck1");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->page_size(), kPage);  // payload budget is unchanged
  EXPECT_EQ((*file)->physical_page_size(), kPage + kPageTrailerBytes);
  ASSERT_TRUE((*file)->WritePage(0, Slice("hello")).ok());
  ASSERT_TRUE((*file)->WritePage(1, Slice(std::string(kPage, 'z'))).ok());
  Buffer out;
  ASSERT_TRUE((*file)->ReadPage(0, &out).ok());
  EXPECT_EQ(out.size(), kPage);  // trailer stripped
  EXPECT_EQ(std::string(out.data(), 5), "hello");
  ASSERT_TRUE((*file)->ReadPage(1, &out).ok());
  EXPECT_EQ(std::string(out.data(), kPage), std::string(kPage, 'z'));
  // Reopen sees the trailered geometry.
  auto reopened = PageFile::Open(path, kPage);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 2u);
  Buffer again;
  ASSERT_TRUE((*reopened)->ReadPage(0, &again).ok());
  EXPECT_EQ(std::string(again.data(), 5), "hello");
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(PageFileTest, BitFlipDetectedNamingFileAndPage) {
  std::string path = TempPath("pf_ck2");
  {
    auto file = PageFile::Create(path, kPage);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WritePage(0, Slice("page zero")).ok());
    ASSERT_TRUE((*file)->WritePage(1, Slice("page one")).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  {
    // Flip one bit in page 1's payload, bypassing the FileSystem layer.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(kPage + kPageTrailerBytes + 3));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(kPage + kPageTrailerBytes + 3));
    f.put(static_cast<char>(c ^ 0x10));
  }
  auto file = PageFile::Open(path, kPage);
  ASSERT_TRUE(file.ok());
  Buffer out;
  ASSERT_TRUE((*file)->ReadPage(0, &out).ok());  // untouched page still reads
  Status st = (*file)->ReadPage(1, &out);
  ASSERT_TRUE(st.IsChecksumMismatch()) << st.ToString();
  EXPECT_NE(st.ToString().find(path), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("page 1"), std::string::npos) << st.ToString();
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(PageFileTest, MisdirectedPageDetected) {
  // The trailer covers the page number, so a page written to the wrong
  // offset (misdirected I/O) fails its checksum even though its bytes are
  // internally consistent.
  std::string path = TempPath("pf_ck3");
  {
    auto file = PageFile::Create(path, kPage);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WritePage(0, Slice("A")).ok());
    ASSERT_TRUE((*file)->WritePage(1, Slice("B")).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  {
    // Swap the two physical pages wholesale.
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    const size_t physical = kPage + kPageTrailerBytes;
    std::string swapped = all.substr(physical, physical) +
                          all.substr(0, physical);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << swapped;
  }
  auto file = PageFile::Open(path, kPage);
  ASSERT_TRUE(file.ok());
  Buffer out;
  EXPECT_TRUE((*file)->ReadPage(0, &out).IsChecksumMismatch());
  EXPECT_TRUE((*file)->ReadPage(1, &out).IsChecksumMismatch());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

// PageChecksum is XXH64 seeded with the page number, folded to 32 bits as
// low ^ high: published XXH64 test vectors, folded, pin it.
TEST(PageChecksumTest, MatchesFoldedXxh64Vectors) {
  EXPECT_EQ(PageChecksum(Slice(""), 0), 0xBE9E32AEu);     // ef46db3751d8e999
  EXPECT_EQ(PageChecksum(Slice("a"), 0), 0x7BC2AAAAu);    // d24ec4f1a98c6e5b
  EXPECT_EQ(PageChecksum(Slice("abc"), 0), 0xE9CB256Cu);  // 44bc2cf5ad770999
  EXPECT_EQ(PageChecksum(Slice("xxhash"), 0), 0x1E96FFB5u);
  EXPECT_EQ(PageChecksum(Slice("xxhash"), 20141025), 0x3117BFB8u);
  EXPECT_EQ(PageChecksum(Slice("Nobody inspects the spammish repetition"), 0),
            0x71F923CDu);  // 39 bytes: one 32-byte stripe, then the tail
}

std::string GoldenPage() {
  std::string page(kDefaultPageSize, '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>((i * 131 + (i >> 8)) & 0xff);
  }
  return page;
}

// Golden values over full 128 KiB pages (computed by an independent
// implementation of the algorithm docs/FORMAT.md spells out). A change
// here is a change of the on-disk format.
TEST(PageChecksumTest, GoldenPageValues) {
  const std::string page = GoldenPage();
  EXPECT_EQ(PageChecksum(Slice(page), 7), 0xD11A4998u);
  EXPECT_EQ(PageChecksum(Slice(page.data(), 100), 7), 0x880D878Eu);
  EXPECT_EQ(PageChecksum(Slice(page.data(), 4099), 3), 0x113E2623u);
  const std::string zeros(kDefaultPageSize, '\0');
  EXPECT_EQ(PageChecksum(Slice(zeros), 0), 0x9BBB9C4Bu);
  EXPECT_EQ(PageChecksum(Slice(zeros), 1), 0x96E3F59Eu);
}

// Every single-bit flip anywhere in a 128 KiB page, and every page number
// a misdirected read or write could substitute (each of the first 16,384
// pages, and every single-bit change of the page number), fails
// verification.
TEST(PageChecksumTest, EverySingleBitFlipAndPageNumberChangeDetected) {
  std::string page = GoldenPage();
  constexpr uint64_t kPageNo = 4242;
  const uint32_t good = PageChecksum(Slice(page), kPageNo);
  size_t undetected = 0;
  for (size_t byte = 0; byte < page.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      page[byte] ^= static_cast<char>(1 << bit);
      undetected += PageChecksum(Slice(page), kPageNo) == good;
      page[byte] ^= static_cast<char>(1 << bit);
    }
  }
  EXPECT_EQ(undetected, 0u);
  for (uint64_t other = 0; other < 16384; ++other) {
    if (other == kPageNo) continue;
    undetected += PageChecksum(Slice(page), other) == good;
  }
  for (int bit = 0; bit < 64; ++bit) {
    undetected += PageChecksum(Slice(page), kPageNo ^ (1ULL << bit)) == good;
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(PageFileTest, ReadPagesVerifiesAndCompactsInOneRead) {
  FaultInjectionFs fs;
  const std::string path = TempPath("pf_multi");
  {
    auto file = PageFile::Create(path, kPage, &fs);
    ASSERT_TRUE(file.ok());
    for (uint64_t p = 0; p < 4; ++p) {
      const std::string payload(kPage, static_cast<char>('a' + p));
      ASSERT_TRUE((*file)->WritePage(p, Slice(payload)).ok());
    }
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto file = PageFile::Open(path, kPage, &fs);
  ASSERT_TRUE(file.ok());
  // Only the first read call succeeds: ReadPages must make exactly one.
  FaultRule rule;
  rule.path_substring = "pf_multi";
  rule.op = FaultOp::kRead;
  rule.fail_after = 1;
  rule.max_failures = 1;
  fs.AddRule(rule);
  std::vector<char> dst(3 * (*file)->physical_page_size());
  ASSERT_TRUE((*file)->ReadPages(1, 3, dst.data()).ok());
  EXPECT_EQ(std::string(dst.data(), 3 * kPage),
            std::string(kPage, 'b') + std::string(kPage, 'c') +
                std::string(kPage, 'd'));
  EXPECT_TRUE((*file)->ReadPages(0, 1, dst.data()).IsIOError());
  EXPECT_EQ((*file)->ReadPages(2, 3, dst.data()).code(),
            StatusCode::kOutOfRange);
  fs.ClearRules();
  // A flipped byte in the last page read is found and named.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(3 * (kPage + kPageTrailerBytes) + 7));
  f.put('!');
  f.close();
  const Status st = (*file)->ReadPages(1, 3, dst.data());
  ASSERT_TRUE(st.IsChecksumMismatch()) << st.ToString();
  EXPECT_NE(st.ToString().find(path + " page 3"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(FaultInjectionFsTest, FailAfterNAndMaxFailures) {
  FaultInjectionFs fs;
  std::string path = TempPath("fifs1");
  FaultRule rule;
  rule.path_substring = "fifs1";
  rule.op = FaultOp::kWrite;
  rule.fail_after = 2;    // first two writes succeed
  rule.max_failures = 1;  // then exactly one failure
  fs.AddRule(rule);
  auto file = fs.Create(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(Slice("a")).ok());
  EXPECT_TRUE((*file)->Append(Slice("b")).ok());
  Status st = (*file)->Append(Slice("c"));
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE((*file)->Append(Slice("d")).ok());  // budget exhausted
  EXPECT_EQ(fs.injected_errors(), 1u);
  EXPECT_TRUE(fs.RemoveFile(path).ok());
}

TEST(FaultInjectionFsTest, ByteQuotaInjectsEnospc) {
  FaultInjectionFs fs;
  std::string path = TempPath("fifs2");
  fs.SetByteQuota(8);
  auto file = fs.Create(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(Slice("12345678")).ok());
  Status st = (*file)->Append(Slice("x"));
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.ToString().find("o space"), std::string::npos)
      << st.ToString();  // strerror(ENOSPC)
  fs.ClearByteQuota();
  EXPECT_TRUE((*file)->Append(Slice("x")).ok());
  // The failed write was all-or-nothing: 8 quota bytes + 1 after clearing.
  {
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 9u);
  }
  EXPECT_TRUE(fs.RemoveFile(path).ok());
}

TEST(FaultInjectionFsTest, DropUnsyncedWrites) {
  FaultInjectionFs fs;
  fs.SetTrackUnsynced(true);
  const std::string dir = TempPath("fifs3");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(fs.CreateDirs(dir).ok());
  const std::string synced_path = dir + "/synced";
  const std::string torn_path = dir + "/torn";
  const std::string never_path = dir + "/never";
  {
    auto f = fs.Create(synced_path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(Slice("durable")).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Append(Slice(" lost-tail")).ok());  // never synced
  }
  {
    auto f = fs.Create(torn_path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(Slice("gone")).ok());  // never synced
  }
  {
    auto f = fs.Create(never_path);
    ASSERT_TRUE(f.ok());
  }
  fs.DropUnsyncedWrites();
  {
    auto f = fs.Open(synced_path, /*writable=*/false);
    ASSERT_TRUE(f.ok());
    auto size = (*f)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 7u);  // "durable", tail rewound
  }
  EXPECT_FALSE(fs.Exists(torn_path));  // created+written but never synced
  EXPECT_FALSE(fs.Exists(never_path));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ decoded leaf units

/// A unit loader producing `bytes` copies of `fill`, counting its calls.
BufferCache::UnitLoader FillLoader(size_t bytes, char fill,
                                   std::atomic<int>* loads) {
  return [=](Buffer* out) {
    loads->fetch_add(1);
    out->Append(std::string(bytes, fill));
    return Status::OK();
  };
}

TEST(BufferCacheTest, HitAvoidsSecondLoad) {
  const std::string path = TempPath("bc1");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(16 * kPage, kPage);
  std::atomic<int> loads{0};
  // A miss that reads one page from the file, as a leaf's loader does.
  auto load = [&](Buffer* out) {
    cache.CountPagesRead(1);
    return FillLoader(5, 'h', &loads)(out);
  };
  {
    auto h = cache.FetchDecoded(**file, 0, -1, load);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data().ToString(), "hhhhh");
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  {
    auto h = cache.FetchDecoded(**file, 0, -1, load);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(cache.stats().pages_read, 1u);
  EXPECT_EQ(cache.stats().bytes_read, kPage);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(BufferCacheTest, ConfiscationCountsAgainstBudget) {
  const std::string path = TempPath("bc4");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(4 * kPage, kPage);
  std::atomic<int> loads{0};
  for (uint64_t leaf = 0; leaf < 3; ++leaf) {
    auto h = cache.FetchDecoded(**file, leaf, -1,
                                FillLoader(kPage, 'z', &loads));
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.Confiscate(3 * kPage);  // squeezes the cache to 1 unit
  EXPECT_EQ(cache.stats().confiscations, 1u);
  EXPECT_GE(cache.stats().evictions, 2u);
  EXPECT_LE(cache.cached_bytes(), kPage);
  cache.ReturnConfiscated(3 * kPage);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(BufferCacheTest, EvictionsInterleaveWithInvalidateAcrossFiles) {
  // Regression for the single-map frame index: evictions must drop the
  // entry from the per-file list too, so a later Invalidate of the same
  // file never touches a freed (or re-fetched) entry.
  const std::string path_a = TempPath("bc6a"), path_b = TempPath("bc6b");
  auto file_a = PageFile::Create(path_a, kPage);
  auto file_b = PageFile::Create(path_b, kPage);
  ASSERT_TRUE(file_a.ok());
  ASSERT_TRUE(file_b.ok());
  BufferCache cache(4 * kPage, kPage);  // forces steady eviction
  std::atomic<int> loads{0};
  auto fetch = [&](const PageFile& file, uint64_t leaf, char fill) {
    return cache.FetchDecoded(file, leaf, -1, FillLoader(kPage, fill, &loads));
  };
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 6; ++i) {
      { auto h = fetch(**file_a, i, 'a'); ASSERT_TRUE(h.ok()); }
      { auto h = fetch(**file_b, i, 'b'); ASSERT_TRUE(h.ok()); }
    }
    cache.Invalidate(**file_a);  // must only drop file A's units
    for (uint64_t i = 0; i < 2; ++i) {
      auto h = fetch(**file_b, i, 'b');
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(h->data().data()[0], 'b');
    }
    cache.Invalidate(**file_b);
    EXPECT_EQ(cache.cached_bytes(), 0u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // The same leaf index in different files must stay distinct identities:
  // each file's unit is its own miss and keeps its own bytes.
  cache.ResetStats();
  { auto h = fetch(**file_a, 3, 'a'); ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data().data()[0], 'a'); }
  { auto h = fetch(**file_b, 3, 'b'); ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data().data()[0], 'b'); }
  { auto h = fetch(**file_a, 3, 'x'); ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data().data()[0], 'a'); }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(RemoveFileIfExists(path_a).ok());
  EXPECT_TRUE(RemoveFileIfExists(path_b).ok());
}

TEST(DecodedUnitCacheTest, ChargedByDecodedBytesAndEvictedLru) {
  const std::string path = TempPath("du1");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(10000, kPage);  // room for two 4,000-byte units
  std::atomic<int> loads{0};
  for (uint64_t leaf = 0; leaf < 3; ++leaf) {
    auto unit = cache.FetchDecoded(**file, leaf, -1,
                                   FillLoader(4000, 'a', &loads));
    ASSERT_TRUE(unit.ok());
    EXPECT_EQ(unit->data().size(), 4000u);
  }
  // Charged by decoded bytes, not pages: two units fit, the oldest went.
  EXPECT_EQ(loads.load(), 3);
  EXPECT_EQ(cache.cached_bytes(), 8000u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().pages_read, 0u);  // the loader did no page I/O
  cache.ResetStats();
  { auto u = cache.FetchDecoded(**file, 2, -1, FillLoader(4000, 'a', &loads));
    ASSERT_TRUE(u.ok()); }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(loads.load(), 3);
  { auto u = cache.FetchDecoded(**file, 0, -1, FillLoader(4000, 'a', &loads));
    ASSERT_TRUE(u.ok()); }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(loads.load(), 4);
  // Units of one leaf are distinct per column.
  { auto u = cache.FetchDecoded(**file, 0, 3, FillLoader(100, 'c', &loads));
    ASSERT_TRUE(u.ok());
    EXPECT_EQ(u->data().ToString(), std::string(100, 'c')); }
  EXPECT_EQ(loads.load(), 5);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(DecodedUnitCacheTest, PinnedUnitSurvivesEvictionPressure) {
  const std::string path = TempPath("du2");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(6000, kPage);
  std::atomic<int> loads{0};
  auto pinned =
      cache.FetchDecoded(**file, 0, -1, FillLoader(4000, 'p', &loads));
  ASSERT_TRUE(pinned.ok());
  // A hit re-pins it; pressure from other units must evict those, never
  // the pinned one, even while the cache sits over budget.
  { auto again = cache.FetchDecoded(**file, 0, -1,
                                    FillLoader(4000, 'p', &loads));
    ASSERT_TRUE(again.ok()); }
  for (uint64_t leaf = 1; leaf < 6; ++leaf) {
    auto unit = cache.FetchDecoded(**file, leaf, -1,
                                   FillLoader(4000, 'x', &loads));
    ASSERT_TRUE(unit.ok());
    EXPECT_GT(cache.cached_bytes(), 6000u);  // both pinned: over budget
  }
  EXPECT_EQ(cache.cached_bytes(), 4000u);  // only the pinned unit remains
  EXPECT_EQ(pinned->data().ToString(), std::string(4000, 'p'));
  cache.ResetStats();
  { auto hit = cache.FetchDecoded(**file, 0, -1, FillLoader(4000, 'p', &loads));
    ASSERT_TRUE(hit.ok()); }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(loads.load(), 6);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(DecodedUnitCacheTest, OversizedAndOneShotUnitsAreServedUncached) {
  const std::string path = TempPath("du3");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(4000, kPage);
  std::atomic<int> loads{0};
  {
    auto big = cache.FetchDecoded(**file, 0, -1, FillLoader(5000, 'b', &loads));
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big->data().ToString(), std::string(5000, 'b'));
    EXPECT_EQ(cache.cached_bytes(), 0u);
  }
  {
    auto once = cache.FetchDecoded(**file, 1, -1,
                                   FillLoader(1000, 'o', &loads),
                                   /*install=*/false);
    ASSERT_TRUE(once.ok());
    EXPECT_EQ(once->data().ToString(), std::string(1000, 'o'));
  }
  EXPECT_EQ(cache.cached_bytes(), 0u);
  // Neither was kept; a one-shot fetch still serves a cached unit.
  { auto u = cache.FetchDecoded(**file, 1, -1, FillLoader(1000, 'o', &loads));
    ASSERT_TRUE(u.ok()); }
  { auto u = cache.FetchDecoded(**file, 1, -1, FillLoader(1000, 'o', &loads),
                                /*install=*/false);
    ASSERT_TRUE(u.ok()); }
  EXPECT_EQ(loads.load(), 3);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.cached_bytes(), 1000u);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(DecodedUnitCacheTest, ConcurrentMissesLoadOnceAndShareBytes) {
  const std::string path = TempPath("du4");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(1 << 20, kPage);
  std::atomic<int> loads{0};
  auto slow_loader = [&](Buffer* out) {
    loads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 5000; ++i) out->AppendByte(static_cast<uint8_t>(i));
    return Status::OK();
  };
  Buffer expected;
  ASSERT_TRUE(slow_loader(&expected).ok());
  loads = 0;
  constexpr int kThreads = 8;
  std::vector<CacheHandle> handles(kThreads);
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto unit = cache.FetchDecoded(**file, 7, 2, slow_loader);
      if (!unit.ok()) return;
      seen[t] = unit->data().ToString();  // what the fetch handed out
      handles[t] = std::move(*unit);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<uint64_t>(kThreads - 1));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(handles[t].valid());
    EXPECT_EQ(seen[t], expected.slice().ToString());
    // One copy, shared by every handle.
    EXPECT_EQ(handles[t].data().data(), handles[0].data().data());
  }
  EXPECT_EQ(cache.cached_bytes(), 5000u);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(DecodedUnitCacheTest, InvalidateAndClearDropUnits) {
  const std::string path_a = TempPath("du5a"), path_b = TempPath("du5b");
  auto file_a = PageFile::Create(path_a, kPage);
  auto file_b = PageFile::Create(path_b, kPage);
  ASSERT_TRUE(file_a.ok());
  ASSERT_TRUE(file_b.ok());
  BufferCache cache(1 << 20, kPage);
  std::atomic<int> loads{0};
  for (uint64_t leaf = 0; leaf < 3; ++leaf) {
    ASSERT_TRUE(cache.FetchDecoded(**file_a, leaf, -1,
                                   FillLoader(1000, 'a', &loads)).ok());
    ASSERT_TRUE(cache.FetchDecoded(**file_b, leaf, 1,
                                   FillLoader(500, 'b', &loads)).ok());
  }
  EXPECT_EQ(cache.cached_bytes(), 3 * 1000u + 3 * 500u);
  cache.Invalidate(**file_a);  // file A's units, not file B's
  EXPECT_EQ(cache.cached_bytes(), 3 * 500u);
  cache.ResetStats();
  ASSERT_TRUE(cache.FetchDecoded(**file_b, 1, 1,
                                 FillLoader(500, 'b', &loads)).ok());
  ASSERT_TRUE(cache.FetchDecoded(**file_a, 1, -1,
                                 FillLoader(1000, 'a', &loads)).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A unit pinned across Clear() stays readable through its handle, then
  // is freed on unpin; the cache itself is empty at once.
  auto pinned =
      cache.FetchDecoded(**file_b, 2, 1, FillLoader(500, 'b', &loads));
  ASSERT_TRUE(pinned.ok());
  cache.Clear();
  EXPECT_EQ(cache.cached_bytes(), 0u);
  EXPECT_EQ(pinned->data().ToString(), std::string(500, 'b'));
  *pinned = CacheHandle();
  EXPECT_EQ(cache.cached_bytes(), 0u);
  cache.ResetStats();
  ASSERT_TRUE(cache.FetchDecoded(**file_b, 0, 1,
                                 FillLoader(500, 'b', &loads)).ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(RemoveFileIfExists(path_a).ok());
  EXPECT_TRUE(RemoveFileIfExists(path_b).ok());
}

TEST(DecodedUnitCacheTest, EveryUnitStaysFoundAcrossDropsAndEvictions) {
  // Thousands of units of three files, scattered keys: the entry table
  // grows several times, then loses one file's units from the middle of
  // its probe runs (Invalidate) and, in a smaller cache, LRU victims.
  // Every unit still resident must be a hit with its own bytes, and
  // every dropped one a miss.
  std::vector<std::unique_ptr<PageFile>> files;
  std::vector<std::string> paths;
  for (int f = 0; f < 3; ++f) {
    paths.push_back(TempPath("du_table" + std::to_string(f)));
    auto file = PageFile::Create(paths.back(), kPage);
    ASSERT_TRUE(file.ok());
    files.push_back(std::move(*file));
  }
  struct UnitKey {
    int file;
    uint64_t leaf;
    int column;
  };
  Rng rng(17);
  std::vector<UnitKey> keys;
  for (uint64_t i = 0; i < 3000; ++i) {
    keys.push_back({static_cast<int>(rng.Uniform(3)), i / 7 + rng.Uniform(3),
                    static_cast<int>(i % 7) - 1});
  }
  std::atomic<int> loads{0};
  auto bytes_of = [](const UnitKey& k) {
    return std::to_string(k.file) + "/" + std::to_string(k.leaf) + "/" +
           std::to_string(k.column);
  };
  // Fetches `k`; true on a hit. Checks the bytes either way.
  auto fetch = [&](BufferCache* cache, const UnitKey& k) {
    const int before = loads.load();
    auto unit = cache->FetchDecoded(
        *files[static_cast<size_t>(k.file)], k.leaf, k.column,
        [&](Buffer* out) {
          loads.fetch_add(1);
          out->Append(Slice(bytes_of(k)));
          return Status::OK();
        });
    EXPECT_TRUE(unit.ok());
    if (!unit.ok()) return false;
    EXPECT_EQ(unit->data().ToString(), bytes_of(k));
    return loads.load() == before;
  };

  {
    BufferCache cache(1 << 20, kPage);  // holds them all
    for (const UnitKey& k : keys) fetch(&cache, k);
    const int distinct = loads.load();
    for (const UnitKey& k : keys) EXPECT_TRUE(fetch(&cache, k));
    EXPECT_EQ(loads.load(), distinct);
    cache.Invalidate(*files[1]);
    for (const UnitKey& k : keys) {
      const bool hit = fetch(&cache, k);
      if (k.file != 1) {
        EXPECT_TRUE(hit) << bytes_of(k);
      }
    }
    // File 1's units were all reloaded, once each.
    for (const UnitKey& k : keys) EXPECT_TRUE(fetch(&cache, k));
    cache.Clear();
    EXPECT_EQ(cache.cached_bytes(), 0u);
    cache.ResetStats();
    for (const UnitKey& k : keys) fetch(&cache, k);
    EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(distinct));
  }
  {
    // Room for about 500 units: each fetch past it evicts the least
    // recently used one, so the last 400 fetched are resident.
    BufferCache cache(500 * 8, kPage);
    for (const UnitKey& k : keys) fetch(&cache, k);
    EXPECT_GT(cache.stats().evictions, 1000u);
    for (size_t i = keys.size() - 400; i < keys.size(); ++i) {
      EXPECT_TRUE(fetch(&cache, keys[i])) << bytes_of(keys[i]);
    }
    EXPECT_FALSE(fetch(&cache, keys[0]));
  }
  for (const std::string& path : paths) {
    EXPECT_TRUE(RemoveFileIfExists(path).ok());
  }
}

TEST(DecodedUnitCacheTest, FailedLoadIsNotCached) {
  const std::string path = TempPath("du6");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(1 << 20, kPage);
  auto failing = [](Buffer* out) {
    out->Append(Slice("partial"));
    return Status::Corruption("bad unit");
  };
  auto unit = cache.FetchDecoded(**file, 0, -1, failing);
  EXPECT_TRUE(unit.status().IsCorruption());
  EXPECT_EQ(cache.cached_bytes(), 0u);
  std::atomic<int> loads{0};
  auto retry = cache.FetchDecoded(**file, 0, -1, FillLoader(10, 'r', &loads));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(retry->data().ToString(), std::string(10, 'r'));
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

// A unit's attachment (a seek index, a leaf's keys) is built once,
// charged with the unit, and dropped with it.
TEST(DecodedUnitCacheTest, AttachmentIsChargedAndFreedWithItsUnit) {
  const std::string path = TempPath("du_attach");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(10000, kPage);
  std::atomic<int> loads{0};
  std::atomic<int> builds{0};
  auto build = [&](Buffer* out) {
    builds.fetch_add(1);
    out->Append(std::string(1000, 'i'));
    return Status::OK();
  };
  {
    auto unit =
        cache.FetchDecoded(**file, 0, 1, FillLoader(3000, 'u', &loads));
    ASSERT_TRUE(unit.ok());
    auto index = cache.Attachment(*unit, build);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->ToString(), std::string(1000, 'i'));
    EXPECT_EQ(cache.cached_bytes(), 4000u);
  }
  {
    // A later pin of the same unit finds the attachment built.
    auto unit =
        cache.FetchDecoded(**file, 0, 1, FillLoader(3000, 'u', &loads));
    ASSERT_TRUE(unit.ok());
    auto index = cache.Attachment(*unit, build);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->size(), 1000u);
  }
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(loads.load(), 1);
  // Pressure evicts the unit together with its attachment.
  for (uint64_t leaf = 1; leaf < 4; ++leaf) {
    auto unit =
        cache.FetchDecoded(**file, leaf, 1, FillLoader(4000, 'x', &loads));
    ASSERT_TRUE(unit.ok());
  }
  EXPECT_EQ(cache.cached_bytes(), 8000u);
  {
    auto unit =
        cache.FetchDecoded(**file, 0, 1, FillLoader(3000, 'u', &loads));
    ASSERT_TRUE(unit.ok());
    ASSERT_TRUE(cache.Attachment(*unit, build).ok());
  }
  EXPECT_EQ(builds.load(), 2);  // rebuilt for the reloaded unit
  cache.Clear();
  EXPECT_EQ(cache.cached_bytes(), 0u);
  // A failed build attaches nothing; the next call builds again.
  auto unit = cache.FetchDecoded(**file, 9, 1, FillLoader(10, 'u', &loads));
  ASSERT_TRUE(unit.ok());
  auto failed = cache.Attachment(*unit, [](Buffer*) {
    return Status::Corruption("bad chunk");
  });
  EXPECT_TRUE(failed.status().IsCorruption());
  ASSERT_TRUE(cache.Attachment(*unit, build).ok());
  EXPECT_EQ(cache.cached_bytes(), 1010u);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

// A unit's attachment slots (a leaf head's keys and presence index) are
// built independently, each once, and charged and freed with the unit.
TEST(DecodedUnitCacheTest, AttachmentSlotsAreIndependent) {
  const std::string path = TempPath("du_attach_slots");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(10000, kPage);
  std::atomic<int> loads{0};
  int builds[BufferCache::kAttachmentSlots] = {};
  auto builder = [&](size_t slot, size_t size) {
    return [&builds, slot, size](Buffer* out) {
      ++builds[slot];
      out->Append(std::string(size, static_cast<char>('a' + slot)));
      return Status::OK();
    };
  };
  {
    auto unit =
        cache.FetchDecoded(**file, 0, -1, FillLoader(1000, 'u', &loads));
    ASSERT_TRUE(unit.ok());
    auto first = cache.Attachment(*unit, builder(0, 100), 0);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(cache.cached_bytes(), 1100u);
    // A failed build of one slot leaves the other alone.
    auto failed = cache.Attachment(
        *unit, [](Buffer*) { return Status::Corruption("bad"); }, 1);
    EXPECT_TRUE(failed.status().IsCorruption());
    auto second = cache.Attachment(*unit, builder(1, 300), 1);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->ToString(), std::string(300, 'b'));
    EXPECT_EQ(first->ToString(), std::string(100, 'a'));
    EXPECT_EQ(cache.cached_bytes(), 1400u);
  }
  {
    auto unit =
        cache.FetchDecoded(**file, 0, -1, FillLoader(1000, 'u', &loads));
    ASSERT_TRUE(unit.ok());
    auto second = cache.Attachment(*unit, builder(1, 300), 1);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->size(), 300u);
    auto first = cache.Attachment(*unit, builder(0, 100), 0);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->size(), 100u);
  }
  EXPECT_EQ(builds[0], 1);
  EXPECT_EQ(builds[1], 1);
  EXPECT_EQ(loads.load(), 1);
  cache.Clear();
  EXPECT_EQ(cache.cached_bytes(), 0u);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

// Threads racing to attach to one unit all get the same bytes.
TEST(DecodedUnitCacheTest, ConcurrentAttachmentsAgree) {
  const std::string path = TempPath("du_attach_mt");
  auto file = PageFile::Create(path, kPage);
  ASSERT_TRUE(file.ok());
  BufferCache cache(1 << 20, kPage);
  std::atomic<int> loads{0};
  for (int round = 0; round < 20; ++round) {
    const auto leaf = static_cast<uint64_t>(round);
    std::vector<std::thread> threads;
    std::vector<std::string> seen(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        auto unit = cache.FetchDecoded(**file, leaf, 2,
                                       FillLoader(500, 'u', &loads));
        ASSERT_TRUE(unit.ok());
        auto index = cache.Attachment(*unit, [&](Buffer* out) {
          out->Append("index-" + std::to_string(leaf));
          return Status::OK();
        });
        ASSERT_TRUE(index.ok());
        seen[t] = index->ToString();
      });
    }
    for (auto& thread : threads) thread.join();
    for (const std::string& s : seen) {
      EXPECT_EQ(s, "index-" + std::to_string(leaf));
    }
  }
  EXPECT_EQ(loads.load(), 20);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(DecodedUnitCacheTest, RangeReadCountsPagesAndCachesNothing) {
  const std::string path = TempPath("du7");
  BufferCache cache(64 * kPage, kPage);
  {
    auto writer = ComponentWriter::Create(path, &cache, kPage);
    ASSERT_TRUE(writer.ok());
    std::string payload;
    for (size_t i = 0; i < kPage * 3; ++i) {
      payload.push_back(static_cast<char>('a' + (i / kPage)));
    }
    ASSERT_TRUE((*writer)->AppendLeaf(Slice(payload), 0, 9, 10).ok());
    ASSERT_TRUE((*writer)->Finish(Slice("")).ok());
  }
  auto reader = ComponentReader::Open(path, &cache, kPage);
  ASSERT_TRUE(reader.ok());
  cache.ResetStats();
  Buffer out;
  ASSERT_TRUE((*reader)->ReadLeafRange(0, kPage - 50, 100, &out).ok());
  EXPECT_EQ(out.slice().ToString(),
            std::string(50, 'a') + std::string(50, 'b'));
  EXPECT_EQ(cache.stats().pages_read, 2u);
  EXPECT_EQ(cache.stats().bytes_read, 2 * kPage);
  EXPECT_EQ(cache.cached_bytes(), 0u);
  // A memo keeps the partially covered pages, so neighbouring ranges
  // (AMAX megapages sharing a page) read a shared page once.
  LeafPageMemo memo;
  cache.ResetStats();
  ASSERT_TRUE((*reader)->ReadLeafRange(0, 10, kPage - 20, &out, &memo).ok());
  ASSERT_TRUE((*reader)->ReadLeafRange(0, kPage - 10, 20, &out, &memo).ok());
  EXPECT_EQ(out.slice().ToString(),
            std::string(10, 'a') + std::string(10, 'b'));
  ASSERT_TRUE((*reader)->ReadLeafRange(0, kPage + 10, kPage, &out, &memo).ok());
  EXPECT_EQ(out.slice().ToString(),
            std::string(kPage - 10, 'b') + std::string(10, 'c'));
  EXPECT_EQ(cache.stats().pages_read, 3u);  // pages 0, 1, 2 once each
  reader->reset();
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

class ComponentFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("comp");
    cache_ = std::make_unique<BufferCache>(64 * kPage, kPage);
  }
  void TearDown() override { RemoveFileIfExists(path_); }

  std::string path_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(ComponentFileTest, RoundTripLeavesIndexAndMetadata) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  std::string leaf1(kPage / 2, 'A');           // sub-page leaf
  std::string leaf2(kPage * 3 + 100, 'B');     // multi-page leaf
  ASSERT_TRUE((*writer)->AppendLeaf(Slice(leaf1), 0, 9, 10).ok());
  ASSERT_TRUE((*writer)->AppendLeaf(Slice(leaf2), 10, 25, 16).ok());
  ASSERT_TRUE((*writer)->Finish(Slice("META")).ok());

  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ((*reader)->leaves().size(), 2u);
  EXPECT_EQ((*reader)->leaves()[0].min_key, 0);
  EXPECT_EQ((*reader)->leaves()[0].max_key, 9);
  EXPECT_EQ((*reader)->leaves()[0].record_count, 10u);
  EXPECT_EQ((*reader)->leaves()[1].page_count, 4u);
  EXPECT_EQ((*reader)->metadata().ToString(), "META");

  Buffer out;
  ASSERT_TRUE((*reader)->ReadLeaf(0, &out).ok());
  EXPECT_EQ(out.slice().ToString(), leaf1);
  ASSERT_TRUE((*reader)->ReadLeaf(1, &out).ok());
  EXPECT_EQ(out.slice().ToString(), leaf2);
}

TEST_F(ComponentFileTest, RangeReadTouchesOnlyNeededPages) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  std::string payload;
  for (size_t i = 0; i < kPage * 6; ++i) {
    payload.push_back(static_cast<char>('a' + (i / kPage)));
  }
  ASSERT_TRUE((*writer)->AppendLeaf(Slice(payload), 0, 99, 100).ok());
  ASSERT_TRUE((*writer)->Finish(Slice("")).ok());

  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok());
  cache_->ResetStats();
  Buffer out;
  // Bytes entirely inside page 3 of the leaf.
  ASSERT_TRUE((*reader)->ReadLeafRange(0, kPage * 3 + 10, 100, &out).ok());
  EXPECT_EQ(out.slice().ToString(), std::string(100, 'd'));
  EXPECT_EQ(cache_->stats().pages_read, 1u);
  // Range spanning pages 1..2.
  ASSERT_TRUE(
      (*reader)->ReadLeafRange(0, kPage - 50, 100, &out).ok());
  EXPECT_EQ(out.slice().ToString(),
            std::string(50, 'a') + std::string(50, 'b'));
  EXPECT_EQ(cache_->stats().pages_read, 3u);
  // Out-of-bounds rejected.
  EXPECT_FALSE((*reader)->ReadLeafRange(0, kPage * 6 - 10, 20, &out).ok());
}

TEST_F(ComponentFileTest, LowerBoundLeafBinarySearch) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  // Leaves: [0,9], [10,19], [30,39] (gap 20..29).
  for (int i : {0, 10, 30}) {
    ASSERT_TRUE((*writer)->AppendLeaf(Slice("leaf"), i, i + 9, 1).ok());
  }
  ASSERT_TRUE((*writer)->Finish(Slice("")).ok());
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->LowerBoundLeaf(-5), 0u);
  EXPECT_EQ((*reader)->LowerBoundLeaf(0), 0u);
  EXPECT_EQ((*reader)->LowerBoundLeaf(9), 0u);
  EXPECT_EQ((*reader)->LowerBoundLeaf(10), 1u);
  EXPECT_EQ((*reader)->LowerBoundLeaf(25), 2u);  // in the gap
  EXPECT_EQ((*reader)->LowerBoundLeaf(39), 2u);
  EXPECT_EQ((*reader)->LowerBoundLeaf(40), 3u);  // past all leaves
}

TEST_F(ComponentFileTest, EmptyComponent) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish(Slice("empty")).ok());
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->leaves().size(), 0u);
  EXPECT_EQ((*reader)->metadata().ToString(), "empty");
}

// An empty blob is written as one zero-filled page; a default Slice's
// null data() is never copied from.
TEST_F(ComponentFileTest, EmptyMetadataFromNullSlice) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendLeaf(Slice("leaf"), 0, 9, 1).ok());
  ASSERT_TRUE((*writer)->Finish(Slice()).ok());
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->leaves().size(), 1u);
  EXPECT_TRUE((*reader)->metadata().empty());
}

TEST_F(ComponentFileTest, CorruptFooterRejected) {
  {
    auto file = PageFile::Create(path_, kPage);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WritePage(0, Slice("garbage")).ok());
  }
  EXPECT_FALSE(ComponentReader::Open(path_, cache_.get(), kPage).ok());
}

// Format v2 components ("LSMCOLF2" footer, pages without the checksum
// trailer) are no longer readable: both a genuine v2 file and a trailered
// file carrying the v2 footer magic are rejected as Corruption.
TEST_F(ComponentFileTest, FormatV2FooterRejected) {
  constexpr uint64_t kFooterMagicV2 = 0x4C534D434F4C4632ULL;  // "LSMCOLF2"
  Buffer index;
  index.AppendVarint64(0);  // no leaves
  Buffer footer;
  footer.AppendFixed64(kFooterMagicV2);
  footer.AppendFixed64(0);  // index page
  footer.AppendFixed32(1);
  footer.AppendFixed64(index.size());
  footer.AppendFixed64(1);  // metadata page
  footer.AppendFixed32(1);
  footer.AppendFixed64(1);
  footer.AppendByte(1);  // valid
  const std::string pages[] = {index.slice().ToString(), "m",
                               footer.slice().ToString()};
  {
    // The v2 layout: raw pages of exactly kPage bytes.
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    for (const std::string& payload : pages) {
      std::string page = payload;
      page.resize(kPage, '\0');
      f.write(page.data(), static_cast<std::streamsize>(page.size()));
    }
  }
  auto raw = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_FALSE(raw.ok());
  EXPECT_TRUE(raw.status().IsCorruption()) << raw.status().ToString();

  {
    auto file = PageFile::Create(path_, kPage);
    ASSERT_TRUE(file.ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*file)->WritePage(i, Slice(pages[i])).ok());
    }
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto trailered = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_FALSE(trailered.ok());
  EXPECT_TRUE(trailered.status().IsCorruption())
      << trailered.status().ToString();
  EXPECT_NE(trailered.status().ToString().find("bad component magic"),
            std::string::npos)
      << trailered.status().ToString();
}

// Format v3 components ("LSMCOLF3" footer, page trailers holding FNV-1a
// over the padded payload and the page number) are no longer readable:
// their trailers fail the current check, and Open reports the earlier
// footer magic as Corruption rather than as damage.
TEST_F(ComponentFileTest, FormatV3FnvTrailersRejected) {
  constexpr uint64_t kFooterMagicV3 = 0x4C534D434F4C4633ULL;  // "LSMCOLF3"
  Buffer index;
  index.AppendVarint64(0);  // no leaves
  Buffer footer;
  footer.AppendFixed64(kFooterMagicV3);
  footer.AppendFixed64(0);  // index page
  footer.AppendFixed32(1);
  footer.AppendFixed64(index.size());
  footer.AppendFixed64(1);  // metadata page
  footer.AppendFixed32(1);
  footer.AppendFixed64(1);
  footer.AppendByte(1);  // valid
  const std::string payloads[] = {index.slice().ToString(), "m",
                                  footer.slice().ToString()};
  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    for (uint64_t p = 0; p < 3; ++p) {
      std::string page = payloads[p];
      page.resize(kPage, '\0');
      Buffer num;
      num.AppendFixed64(p);
      const uint32_t fnv = Fnv1a32(num.slice(), Fnv1a32(Slice(page)));
      Buffer trailer;
      trailer.AppendFixed32(fnv);
      trailer.AppendFixed32(0x4B434750u);  // "PGCK"
      page.append(trailer.data(), trailer.size());
      f.write(page.data(), static_cast<std::streamsize>(page.size()));
    }
  }
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
  EXPECT_NE(reader.status().ToString().find("bad component magic"),
            std::string::npos)
      << reader.status().ToString();
  // The same file's pages fail verification one by one.
  auto file = PageFile::Open(path_, kPage);
  ASSERT_TRUE(file.ok());
  Buffer out;
  EXPECT_TRUE((*file)->ReadPage(0, &out).IsChecksumMismatch());
}

TEST_F(ComponentFileTest, DestroyRemovesFileAndCacheEntries) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendLeaf(Slice("data"), 0, 0, 1).ok());
  ASSERT_TRUE((*writer)->Finish(Slice("m")).ok());
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok());
  const ComponentReader& r = **reader;
  auto unit = r.FetchDecoded(
      0, -1, [&](Buffer* out) { return r.ReadLeaf(0, out); },
      /*install=*/true);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->data().ToString(), "data");
  *unit = CacheHandle();
  EXPECT_GT(cache_->cached_bytes(), 0u);
  ASSERT_TRUE((*reader)->Destroy().ok());
  EXPECT_EQ(cache_->cached_bytes(), 0u);
  EXPECT_FALSE(PageFile::Open(path_, kPage).ok());
}

TEST_F(ComponentFileTest, ManyLeavesStressIndex) {
  auto writer = ComponentWriter::Create(path_, cache_.get(), kPage);
  ASSERT_TRUE(writer.ok());
  Rng rng(5);
  int64_t key = 0;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int i = 0; i < 500; ++i) {
    int64_t lo = key;
    key += static_cast<int64_t>(rng.Uniform(100)) + 1;
    int64_t hi = key - 1;
    ranges.emplace_back(lo, hi);
    std::string payload = "leaf" + std::to_string(i);
    ASSERT_TRUE((*writer)->AppendLeaf(Slice(payload), lo, hi,
                                      static_cast<uint32_t>(i + 1)).ok());
  }
  ASSERT_TRUE((*writer)->Finish(Slice("meta")).ok());
  auto reader = ComponentReader::Open(path_, cache_.get(), kPage);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->leaves().size(), 500u);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t probe = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(key)));
    size_t idx = (*reader)->LowerBoundLeaf(probe);
    ASSERT_LT(idx, 500u);
    EXPECT_LE(probe, ranges[idx].second);
    if (idx > 0) {
      EXPECT_GT(probe, ranges[idx - 1].second);
    }
  }
  Buffer out;
  ASSERT_TRUE((*reader)->ReadLeaf(123, &out).ok());
  EXPECT_EQ(out.slice().ToString(), "leaf123");
}

TEST(ManifestTest, WalFloorRoundTrips) {
  const std::string dir = TempPath("manifest_floor");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Manifest m;
  m.sequence = 7;
  m.dataset_name = "docs";
  m.layout = 2;
  m.pk_field = "id";
  m.page_size = kPage;
  m.next_component_id = 3;
  m.wal_floor = 42;
  m.components.push_back({1, "docs_1.cmp"});
  const std::string path = ManifestPath(dir, "docs");
  ASSERT_TRUE(WriteManifest(path, m).ok());
  auto back = ReadManifest(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->wal_floor, 42u);
  EXPECT_EQ(back->sequence, 7u);
  EXPECT_EQ(back->next_component_id, 3u);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, FailedRenameDoesNotLeakTempFile) {
  // Regression: the atomic-write path used to leave `<path>.tmp` behind
  // whenever a step after the open failed. Inject a failure into the
  // final rename and check the temp file is cleaned up.
  const std::string dir = TempPath("manifest_leak");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = ManifestPath(dir, "docs");
  FaultInjectionFs fault_fs;
  FaultRule rule;
  rule.path_substring = ".MANIFEST";
  rule.op = FaultOp::kRename;
  fault_fs.AddRule(rule);
  Manifest m;
  m.dataset_name = "docs";
  m.pk_field = "id";
  m.page_size = kPage;
  Status st = WriteManifest(path, m, &fault_fs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(fault_fs.injected_errors(), 1u);
  EXPECT_FALSE(FileExists(path + ".tmp")) << "temp file leaked on failure";
  EXPECT_FALSE(FileExists(path));
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, SweepRemovesWalSegmentsBelowFloor) {
  const std::string dir = TempPath("manifest_sweep_wal");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* file :
       {"docs_1.wal", "docs_2.wal", "docs_3.wal", "other_1.wal",
        "docs_x.wal"}) {
    std::ofstream(dir + "/" + file) << "x";
  }
  size_t removed = 0;
  ASSERT_TRUE(
      RemoveStaleDatasetFiles(dir, "docs", {}, /*wal_floor=*/3, &removed)
          .ok());
  // Segments 1 and 2 are below the floor; 3 may hold acked writes. Files
  // of other datasets and non-numeric suffixes are never touched.
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(FileExists(dir + "/docs_1.wal"));
  EXPECT_FALSE(FileExists(dir + "/docs_2.wal"));
  EXPECT_TRUE(FileExists(dir + "/docs_3.wal"));
  EXPECT_TRUE(FileExists(dir + "/other_1.wal"));
  EXPECT_TRUE(FileExists(dir + "/docs_x.wal"));
  // wal_floor 0 leaves every segment alone (the manifest-less open path).
  ASSERT_TRUE(
      RemoveStaleDatasetFiles(dir, "docs", {}, /*wal_floor=*/0, &removed)
          .ok());
  EXPECT_EQ(removed, 0u);
  EXPECT_TRUE(FileExists(dir + "/docs_3.wal"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsmcol
