// Tests for the bit-packed column storage and the runtime-dispatched scan
// kernels: round-trips across every width class, the kernel unit
// differentials (scalar vs AVX2 must agree byte for byte), the
// ExactRepeatAdd closed form, and a full-tree differential suite proving
// drill-down trees identical across {scalar, SIMD} x threads (x shards in
// memory) on memory, measure, and disk tables.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "common/float_sum.h"
#include "core/scan_kernels.h"
#include "data/census_gen.h"
#include "data/synth.h"
#include "explore/sharded_engine.h"
#include "storage/disk_table.h"
#include "storage/scan_source.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

/// Deterministic codes < dict_size with every value guaranteed present
/// (when n >= dict_size), so histogram tests exercise the full range.
std::vector<uint32_t> MakeCodes(uint64_t n, uint32_t dict_size,
                                uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> codes(n);
  for (uint64_t i = 0; i < n; ++i) {
    codes[i] = i < dict_size ? static_cast<uint32_t>(i)
                             : rng() % dict_size;
  }
  return codes;
}

PackedColumn MakeColumn(const std::vector<uint32_t>& codes,
                        uint32_t dict_size, bool freeze = true) {
  PackedColumn col;
  for (uint32_t c : codes) col.Append(c);
  if (freeze) col.Freeze(dict_size);
  return col;
}

// --- Round-trips across width classes ---------------------------------------

TEST(PackedColumnTest, RoundTripEveryWidthClass) {
  // Edge sizes straddle the 64-bit word boundary of the kSub layout.
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64},
                     uint64_t{65}, uint64_t{1000}}) {
    for (uint32_t dict : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 200u, 300u,
                          70000u}) {
      std::vector<uint32_t> codes = MakeCodes(n, dict, 42);
      PackedColumn col = MakeColumn(codes, dict);
      ASSERT_EQ(col.size(), n);
      EXPECT_TRUE(col.frozen());
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(col.Get(i), codes[i]) << "n=" << n << " dict=" << dict
                                        << " i=" << i;
      }
    }
  }
}

TEST(PackedColumnTest, WidthClassSelection) {
  // Sub-byte widths round up to a power of two (1, 2, 4) so no code ever
  // straddles a byte; 5..7-bit dictionaries take a whole byte.
  struct Case {
    uint32_t dict;
    PackedWidth width;
    uint8_t bits;
  };
  const Case cases[] = {
      {1, PackedWidth::kConst, 0},  {2, PackedWidth::kSub, 1},
      {3, PackedWidth::kSub, 2},    {4, PackedWidth::kSub, 2},
      {5, PackedWidth::kSub, 4},    // 3 bits rounds up to 4
      {16, PackedWidth::kSub, 4},   {17, PackedWidth::k8, 8},  // 5 -> 8
      {256, PackedWidth::k8, 8},    {257, PackedWidth::k16, 16},
      {65536, PackedWidth::k16, 16}, {65537, PackedWidth::k32, 32},
  };
  for (const Case& c : cases) {
    std::vector<uint32_t> codes = MakeCodes(100, c.dict, 7);
    PackedColumn col = MakeColumn(codes, c.dict);
    EXPECT_EQ(col.width(), c.width) << "dict=" << c.dict;
    EXPECT_EQ(col.bits(), c.bits) << "dict=" << c.dict;
  }
}

TEST(PackedColumnTest, FreezeIsIdempotentAndShrinksBytes) {
  std::vector<uint32_t> codes = MakeCodes(10000, 13, 3);
  PackedColumn col = MakeColumn(codes, 13, /*freeze=*/false);
  const size_t unpacked_bytes = col.byte_size();
  col.Freeze(13);
  const size_t packed_bytes = col.byte_size();
  EXPECT_LT(packed_bytes * 2, unpacked_bytes);  // 4 bits vs 32
  col.Freeze(13);  // no-op
  EXPECT_EQ(col.byte_size(), packed_bytes);
  for (uint64_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.Get(i), codes[i]);
  }
}

TEST(PackedColumnTest, UnfrozenColumnsKeepFullReadSupport) {
  std::vector<uint32_t> codes = MakeCodes(500, 9, 11);
  PackedColumn col = MakeColumn(codes, 9, /*freeze=*/false);
  EXPECT_FALSE(col.frozen());
  std::vector<uint32_t> out(codes.size());
  col.Unpack(0, codes.size(), out.data());
  EXPECT_EQ(out, codes);
  col.Append(3);  // appends stay legal before freeze
  EXPECT_EQ(col.Get(codes.size()), 3u);
}

// --- Packed views: SliceRows and ScanRange -----------------------------------

TEST(PackedColumnTest, SliceRowsOfFrozenTableStaysPackedAndByteCompatible) {
  SynthSpec spec;
  spec.rows = 10000;
  spec.cardinalities = {3, 9, 40, 70000};  // kSub, kSub, k8, k32
  spec.seed = 5;
  Table table = GenerateSyntheticTable(spec);  // generator freezes
  ASSERT_TRUE(table.column(0).frozen());

  Table slice = table.SliceRows(2500, 7500);
  ASSERT_EQ(slice.num_rows(), 5000u);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // Slices of frozen tables keep the parent's width class (the shared
    // dictionary fixed it), so shard payloads stay byte-compatible.
    EXPECT_EQ(slice.column(c).width(), table.column(c).width()) << "c=" << c;
    for (uint64_t i = 0; i < 5000; i += 37) {
      ASSERT_EQ(slice.column(c).Get(i), table.column(c).Get(2500 + i))
          << "c=" << c << " i=" << i;
    }
  }
}

TEST(PackedColumnTest, ScanRangeDecodesPackedColumnsAtAnOffset) {
  SynthSpec spec;
  spec.rows = 9000;
  spec.cardinalities = {5, 13};
  spec.seed = 17;
  Table table = GenerateSyntheticTable(spec);
  MemoryScanSource source(table);
  uint64_t rows_seen = 0;
  Status s = source.ScanRange(1000, 8000, [&](uint64_t row_id,
                                              const uint32_t* codes,
                                              const double*) {
    // A range pass emits table row ids with codes decoded from the packed
    // payload at that position.
    EXPECT_EQ(row_id, 1000 + rows_seen);
    EXPECT_EQ(codes[0], table.column(0).Get(row_id));
    EXPECT_EQ(codes[1], table.column(1).Get(row_id));
    ++rows_seen;
    return true;
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rows_seen, 7000u);
}

// --- Kernel unit differentials ----------------------------------------------

/// Runs `check` for the scalar kernels and, when this host has AVX2, for
/// the AVX2 kernels — the differential contract is that both tables have
/// identical observable behavior on every width class.
template <typename Check>
void ForEachKernelPath(Check check) {
  check(GetScanKernels(KernelPath::kScalar), "scalar");
  if (Avx2Available()) check(GetScanKernels(KernelPath::kAvx2), "avx2");
}

TEST(ScanKernelTest, UnpackMatchesGetOnEveryWidth) {
  for (uint32_t dict : {1u, 2u, 4u, 9u, 16u, 200u, 300u, 70000u}) {
    std::vector<uint32_t> codes = MakeCodes(5000, dict, dict);
    PackedColumn col = MakeColumn(codes, dict);
    ForEachKernelPath([&](const ScanKernels& k, const char* name) {
      // Unaligned begin/end stress the sub-byte head/tail handling.
      for (auto [b, e] : {std::pair<uint64_t, uint64_t>{0, 5000},
                          {1, 4999}, {63, 129}, {4093, 4101}}) {
        std::vector<uint32_t> out(e - b, 0xDEADBEEF);
        k.unpack(col.ref(), b, e, out.data());
        for (uint64_t i = b; i < e; ++i) {
          ASSERT_EQ(out[i - b], codes[i])
              << name << " dict=" << dict << " range=[" << b << "," << e
              << ") i=" << i;
        }
      }
    });
  }
}

TEST(ScanKernelTest, CountCodesMatchesScalarHistogram) {
  for (uint32_t dict : {1u, 2u, 3u, 4u, 9u, 13u, 16u, 200u, 300u, 70000u}) {
    std::vector<uint32_t> codes = MakeCodes(20000, dict, dict + 1);
    PackedColumn col = MakeColumn(codes, dict);
    for (auto [b, e] : {std::pair<uint64_t, uint64_t>{0, 20000},
                        {0, 0}, {1, 2}, {7, 63}, {5, 20000}, {64, 128},
                        {12345, 19999}}) {
      std::vector<uint32_t> want(dict, 0);
      for (uint64_t i = b; i < e; ++i) ++want[codes[i]];
      ForEachKernelPath([&](const ScanKernels& k, const char* name) {
        std::vector<uint32_t> got(dict, 0);
        k.count_codes(col.ref(), b, e, dict, got.data());
        ASSERT_EQ(got, want) << name << " dict=" << dict << " range=[" << b
                             << "," << e << ")";
      });
    }
  }
}

TEST(ScanKernelTest, CountCodesAccumulatesIntoExistingCounts) {
  std::vector<uint32_t> codes = MakeCodes(1000, 4, 5);
  PackedColumn col = MakeColumn(codes, 4);
  ForEachKernelPath([&](const ScanKernels& k, const char* name) {
    std::vector<uint32_t> counts(4, 100);
    k.count_codes(col.ref(), 0, 1000, 4, counts.data());
    uint32_t total = 0;
    for (uint32_t c : counts) total += c - 100;
    EXPECT_EQ(total, 1000u) << name;
  });
}

TEST(ScanKernelTest, MatchEqAndCoveredMaxAgreeAcrossPaths) {
  for (uint32_t dict : {2u, 4u, 9u, 200u, 300u}) {
    std::vector<uint32_t> codes = MakeCodes(4096, dict, 17);
    PackedColumn col = MakeColumn(codes, dict);
    const uint32_t want = dict / 2;
    std::vector<uint8_t> ref_mask(4096);
    std::vector<double> ref_cov(4096, 0.5);
    GetScanKernels(KernelPath::kScalar)
        .match_eq(col.ref(), 0, 4096, want, ref_mask.data(), true);
    GetScanKernels(KernelPath::kScalar)
        .covered_max(ref_cov.data(), ref_mask.data(), 4096, 1.25);
    ForEachKernelPath([&](const ScanKernels& k, const char* name) {
      std::vector<uint8_t> mask(4096);
      std::vector<double> cov(4096, 0.5);
      k.match_eq(col.ref(), 0, 4096, want, mask.data(), true);
      k.covered_max(cov.data(), mask.data(), 4096, 1.25);
      for (size_t i = 0; i < 4096; ++i) {
        ASSERT_EQ(mask[i] != 0, codes[i] == want) << name << " i=" << i;
        ASSERT_EQ(cov[i], mask[i] ? 1.25 : 0.5) << name << " i=" << i;
      }
    });
  }
}

TEST(ScanKernelTest, FilterRowsAgreesAcrossPaths) {
  std::vector<uint32_t> c0 = MakeCodes(8192, 5, 23);
  std::vector<uint32_t> c1 = MakeCodes(8192, 13, 29);
  PackedColumn p0 = MakeColumn(c0, 5);
  PackedColumn p1 = MakeColumn(c1, 13);
  // A posting list with a bias, as the pass-2 gather paths use it.
  const uint64_t bias = 100;
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 8192; r += 3) rows.push_back(r + bias);
  GatherPred preds[2] = {{p0.ref(), 2}, {p1.ref(), 7}};
  std::vector<uint32_t> want;
  for (uint32_t r : rows) {
    if (c0[r - bias] == 2 && c1[r - bias] == 7) want.push_back(r);
  }
  ForEachKernelPath([&](const ScanKernels& k, const char* name) {
    std::vector<uint32_t> out(rows.size());
    size_t kept =
        k.filter_rows(rows.data(), rows.size(), bias, preds, 2, out.data());
    out.resize(kept);
    EXPECT_EQ(out, want) << name;
  });
}

// --- ExactRepeatAdd ----------------------------------------------------------

TEST(ExactRepeatAddTest, MatchesLiteralLoop) {
  const double weights[] = {0.0, 1.0, 2.0, 0.5, 1.5, 3.0, 7.0,
                            0.1, 1.0 / 3.0, 123.456, 1e-30, 1e30};
  const uint64_t counts[] = {0, 1, 2, 3, 63, 64, 1000, 4097};
  for (double w : weights) {
    for (uint64_t n : counts) {
      double loop = 0;
      for (uint64_t i = 0; i < n; ++i) loop += w;
      EXPECT_EQ(ExactRepeatAdd(w, n), loop) << "w=" << w << " n=" << n;
    }
  }
}

TEST(ExactRepeatAddTest, LargeCountsOfExactWeightsUseClosedForm) {
  // Integer and small-rational weights stay exact at row-scale counts.
  EXPECT_EQ(ExactRepeatAdd(1.0, uint64_t{200000}), 200000.0);
  EXPECT_EQ(ExactRepeatAdd(2.5, uint64_t{1} << 40), 2.5 * (uint64_t{1} << 40));
  EXPECT_EQ(ExactRepeatAdd(std::numeric_limits<double>::infinity(), 5),
            std::numeric_limits<double>::infinity());
}

// --- Full-tree differential suite -------------------------------------------

/// Byte fingerprint of the displayed tree (rule codes + raw IEEE-754 mass
/// bits): equal fingerprints mean identical trees down to the last ULP.
std::string TreeFingerprint(const ExplorationSession& session) {
  std::string out;
  char buf[64];
  for (int id : session.DisplayOrder()) {
    const ExplorationNode& n = session.node(id);
    uint64_t mass_bits = 0, marginal_bits = 0;
    std::memcpy(&mass_bits, &n.mass, sizeof(mass_bits));
    std::memcpy(&marginal_bits, &n.marginal_mass, sizeof(marginal_bits));
    std::snprintf(buf, sizeof(buf), "%d/%d:", id, n.parent);
    out += buf;
    for (size_t c = 0; c < n.rule.num_columns(); ++c) {
      if (n.rule.is_star(c)) {
        out += "*,";
      } else {
        std::snprintf(buf, sizeof(buf), "%u,", n.rule.value(c));
        out += buf;
      }
    }
    std::snprintf(buf, sizeof(buf), "m%llxg%llx;",
                  static_cast<unsigned long long>(mass_bits),
                  static_cast<unsigned long long>(marginal_bits));
    out += buf;
  }
  return out;
}

/// Expand the root, drill into the first child, refresh exact counts.
std::string Drive(ExplorationSession& session) {
  auto level1 = session.Expand(session.root());
  EXPECT_TRUE(level1.ok()) << level1.status().ToString();
  if (!level1.ok() || level1->empty()) return std::string();
  EXPECT_TRUE(session.Expand((*level1)[0]).ok());
  EXPECT_TRUE(session.RefreshExactCounts().ok());
  return TreeFingerprint(session);
}

/// Drives every {shards} x {threads} x {scalar, avx2} combination of a
/// memory-table engine and expects the exact fingerprint `expected`.
void CheckMemoryGrid(const Table& table, const WeightFunction& weight,
                     const std::string& expected,
                     const std::optional<std::string>& measure) {
  for (size_t shards : {1u, 4u}) {
    for (size_t threads : {1u, 8u}) {
      for (KernelPref pref : {KernelPref::kScalar, KernelPref::kAvx2}) {
        ShardedEngineOptions options;
        options.num_shards = shards;
        auto engine = ShardedEngine::Create(table, weight, options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        SessionOptions so;
        so.k = 3;
        so.num_threads = threads;
        so.kernel = pref;
        so.measure_column = measure;
        auto session = (*engine)->front().NewSession(so);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_EQ(Drive(*session), expected)
            << "tree drift at shards=" << shards << " threads=" << threads
            << " kernel=" << KernelPrefName(pref);
      }
    }
  }
}

TEST(PackedDifferentialTest, MemoryTableTreesIdenticalAcrossKernels) {
  SynthSpec spec;
  spec.rows = 60000;  // > kMinLaneRows so the lane grid actually splits
  spec.cardinalities = {7, 5, 6, 4};
  spec.zipf = {1.2, 0.8, 1.0, 1.4};
  spec.seed = 4321;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  serial.kernel = KernelPref::kScalar;
  auto reference = testing::MakeSession(table, weight, serial);
  std::string expected = Drive(reference.session);
  ASSERT_FALSE(expected.empty());
  CheckMemoryGrid(table, weight, expected, std::nullopt);
}

TEST(PackedDifferentialTest, MeasureTableTreesIdenticalAcrossKernels) {
  SynthSpec spec;
  spec.rows = 50000;
  spec.cardinalities = {6, 9, 4};
  spec.seed = 99;
  spec.with_measure = true;  // Sum aggregation: FP accumulation on the line
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  serial.kernel = KernelPref::kScalar;
  serial.measure_column = "value";
  auto reference = testing::MakeSession(table, weight, serial);
  std::string expected = Drive(reference.session);
  ASSERT_FALSE(expected.empty());
  CheckMemoryGrid(table, weight, expected, std::string("value"));
}

TEST(PackedDifferentialTest, DiskTableTreesIdenticalAcrossKernels) {
  CensusSpec census;
  census.rows = 40000;
  census.columns_used = 6;
  std::string path = ::testing::TempDir() + "/packed_diff.sddt";
  ASSERT_TRUE(GenerateCensusDiskTable(census, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);
  SizeWeight weight;

  EngineOptions sampling;
  sampling.use_sampling = true;
  sampling.sampler.memory_capacity = 20000;
  sampling.sampler.min_sample_size = 4000;
  sampling.sampler.seed = 7;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  serial.kernel = KernelPref::kScalar;
  auto reference = testing::MakeSession(source, weight, serial, sampling);
  std::string expected = Drive(reference.session);
  ASSERT_FALSE(expected.empty());

  for (size_t threads : {1u, 8u}) {
    for (KernelPref pref : {KernelPref::kScalar, KernelPref::kAvx2}) {
      auto engine = ExplorationEngine::Create(source, weight, sampling);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      SessionOptions so;
      so.k = 3;
      so.num_threads = threads;
      so.kernel = pref;
      auto session = (*engine)->NewSession(so);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(Drive(*session), expected)
          << "disk tree drift at threads=" << threads
          << " kernel=" << KernelPrefName(pref);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smartdd
