// Golden trajectories: fixed-seed runs whose outcome is pinned bit for bit.
//
// Every engine optimisation that claims "no trajectory change" has to pass
// this file unchanged. It sweeps the knobs that steer the Drop/Add move
// (nb_drop, nb_candidates), the three tenure controls and both §3.2
// intensification procedures on a large (30x500) and a small (5x100) GK
// instance, and pins, per run: the best value's bit pattern, the move count,
// the best solution's hash, a digest of the elite pool's hashes (in order)
// and every MoveStats tally. A 4-slave CTS2 run on the thread backend pins
// the cooperative layer on top: its best value and every round's
// RoundLog.final_value.
//
// The test is registered twice (tests/CMakeLists.txt): once under the
// default kernel dispatch and once with PTS_SIMD=scalar, so the scalar
// reference body stays covered by trajectory tests whatever the default is.
//
// On a mismatch the failure message prints the actual row in table syntax.
// Only paste it into the table when the trajectory change is intended.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mkp/generator.hpp"
#include "parallel/runner.hpp"
#include "tabu/engine.hpp"

namespace pts::tabu {
namespace {

struct Pin {
  std::uint64_t value_bits = 0;
  std::uint64_t moves = 0;
  std::uint64_t best_hash = 0;
  std::uint64_t elite_digest = 0;
  std::uint64_t drops = 0;
  std::uint64_t adds = 0;
  std::uint64_t aspiration_hits = 0;
  std::uint64_t tabu_blocked_adds = 0;
  std::uint64_t forced_drops = 0;

  bool operator==(const Pin&) const = default;
};

std::string format_row(const Pin& pin) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{0x%016" PRIx64 ", %" PRIu64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},",
                pin.value_bits, pin.moves, pin.best_hash, pin.elite_digest, pin.drops,
                pin.adds, pin.aspiration_hits, pin.tabu_blocked_adds, pin.forced_drops);
  return buf;
}

/// FNV-1a over the elite hashes, best first.
std::uint64_t elite_digest(const std::vector<mkp::Solution>& elite) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& solution : elite) {
    digest ^= solution.hash();
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

constexpr std::size_t kDrops[] = {1, 3, 6};
constexpr std::size_t kCandidates[] = {0, 3, 40};
constexpr TenureControl kTenures[] = {TenureControl::kFixed,
                                      TenureControl::kReverseElimination,
                                      TenureControl::kReactive};
constexpr IntensificationKind kIntensifications[] = {
    IntensificationKind::kSwap, IntensificationKind::kStrategicOscillation};
constexpr std::size_t kMatrixSize = 3 * 3 * 3 * 2;

/// Runs the matrix in the order of the tables below: nb_drop outermost,
/// then nb_candidates, tenure control, intensification.
void check_matrix(const mkp::Instance& inst, std::uint64_t max_moves,
                  const Pin (&expected)[kMatrixSize]) {
  std::size_t row = 0;
  for (const std::size_t nb_drop : kDrops) {
    for (const std::size_t nb_candidates : kCandidates) {
      for (const TenureControl tenure : kTenures) {
        for (const IntensificationKind intensification : kIntensifications) {
          TsParams params;
          params.max_moves = max_moves;
          params.strategy.nb_local = 20;
          params.strategy.nb_drop = nb_drop;
          params.strategy.nb_candidates = nb_candidates;
          params.tenure_control = tenure;
          params.intensification = intensification;
          Rng rng(1000 + row);
          const auto result = tabu_search_from_scratch(inst, params, rng);
          const Pin actual{std::bit_cast<std::uint64_t>(result.best_value),
                           result.moves,
                           result.best.hash(),
                           elite_digest(result.elite),
                           result.move_stats.drops,
                           result.move_stats.adds,
                           result.move_stats.aspiration_hits,
                           result.move_stats.tabu_blocked_adds,
                           result.move_stats.forced_drops};
          EXPECT_EQ(actual, expected[row])
              << "row " << row << " (nb_drop=" << nb_drop
              << ", nb_candidates=" << nb_candidates
              << ", tenure=" << static_cast<int>(tenure)
              << ", intensification=" << static_cast<int>(intensification)
              << ")\n  actual row: " << format_row(actual);
          ++row;
        }
      }
    }
  }
}

// Columns: best-value bits, moves, best hash, elite digest, drops, adds,
// aspiration hits, tabu-blocked adds, forced drops.
constexpr Pin kLarge[kMatrixSize] = {
    {0x40fb88b000000000, 400, 0xec0e3adad9722f44, 0x31e64941d021828f, 400, 421, 8, 1331, 20},
    {0x40fb943000000000, 400, 0xcc42cf88b1f22c9c, 0x75c490a37a97305b, 400, 458, 2, 1466, 19},
    {0x40fbae8000000000, 400, 0x66d8f83217042fd0, 0x3a31582045e8c8c7, 400, 419, 5, 1711, 20},
    {0x40fb919000000000, 400, 0x0e3219175007c2d0, 0xd74f6806d28f209f, 400, 460, 9, 1219, 20},
    {0x40fb939000000000, 400, 0x9963a4d4aad6f3dc, 0x920fe210fc69db3b, 400, 428, 3, 1343, 19},
    {0x40fb8c9000000000, 400, 0xaac5caa2ab13cade, 0x3fd2a13192ff61e6, 400, 453, 2, 1065, 16},
    {0x40fb921000000000, 400, 0x283f8a692cb34afa, 0x2f067719ecc3a3cd, 400, 403, 2, 218, 21},
    {0x40fb7fc000000000, 400, 0xcc88bc22817f41d5, 0x3e1515ee9d4262de, 400, 451, 1, 198, 17},
    {0x40fb6eb000000000, 400, 0xcf8d07e80e9bc16e, 0x1202db5b720bf439, 400, 422, 0, 223, 19},
    {0x40fb506000000000, 400, 0xb7205d1bc328e484, 0xaac18f16b9184607, 400, 449, 1, 177, 17},
    {0x40fb8dc000000000, 400, 0x5add3e7ec7a4b3be, 0xda177e68e022bbb1, 400, 421, 0, 263, 48},
    {0x40fb6ee000000000, 400, 0x055e3e9902c67990, 0x2584ec983e98fad8, 400, 443, 0, 194, 16},
    {0x40fba6f000000000, 400, 0xb65086436514054a, 0x3a4ab8bd90fa6241, 400, 427, 2, 998, 20},
    {0x40fb955000000000, 400, 0x034c91284b1a26b0, 0x082283dac5a1378f, 400, 453, 2, 883, 18},
    {0x40fbb67000000000, 400, 0x9212dd81588a639e, 0x9c05b7cbc056d571, 400, 418, 3, 912, 23},
    {0x40fb9cc000000000, 400, 0x304ca8ef67244a59, 0x2d9ccd1ab10913e5, 400, 458, 2, 854, 19},
    {0x40fb921000000000, 400, 0x6b774b3dda8f6944, 0xe72491703c07d601, 400, 434, 4, 1434, 47},
    {0x40fb881000000000, 400, 0x32ab62b36a7a1290, 0xbcfc189fc7f3989f, 400, 467, 5, 934, 17},
    {0x40fbb2e000000000, 400, 0x560ebe54fc959f68, 0x6cb13330044e5435, 784, 814, 9, 9163, 49},
    {0x40fba82000000000, 400, 0xcf5746f3c2491a61, 0x45518bc03c2caa15, 792, 852, 14, 8385, 48},
    {0x40fbafe000000000, 400, 0x76d45d26538a239f, 0xfe58b456fadd2a49, 781, 807, 5, 8063, 45},
    {0x40fba93000000000, 400, 0x99405f52ca544210, 0x5f6fd42ca0c5d59b, 781, 842, 14, 8438, 41},
    {0x40fbae5000000000, 400, 0x08f79b04cdd73fc4, 0x7bcd16ab4218e327, 816, 834, 4, 9136, 44},
    {0x40fba02000000000, 400, 0x7d85c71a492fd9fc, 0xf3a68ecb30cb817b, 793, 862, 7, 8411, 40},
    {0x40fb4d1000000000, 400, 0x5a22e85d7e9d62bc, 0x3fcb99cde4ab6bb9, 769, 765, 0, 256, 55},
    {0x40fb4dd000000000, 400, 0x6059c5e5c8fa013a, 0xebead9a574d4d285, 805, 843, 5, 183, 45},
    {0x40fb8fe000000000, 400, 0xdc437e0a3016b1f0, 0xa7d262fb8d0e253f, 809, 805, 0, 242, 54},
    {0x40fb455000000000, 400, 0xff764019574d0dd2, 0xd5dc3fe491c81e71, 826, 865, 3, 245, 53},
    {0x40fb612000000000, 400, 0x87cbfc81bbac88d8, 0xf76cd4f3c667f291, 788, 784, 2, 221, 45},
    {0x40fb475000000000, 400, 0x2aa88b6b8b6d6d3e, 0x4dbfbe7a8243eb43, 824, 853, 1, 226, 41},
    {0x40fb911000000000, 400, 0x61fd01c7620fbb1e, 0x8c3181b209505351, 778, 793, 9, 2139, 38},
    {0x40fb736000000000, 400, 0xb1bc5bb7c514f90e, 0x9664ef6481d20cd3, 786, 839, 2, 2071, 45},
    {0x40fba8f000000000, 400, 0x2ce0104fb3013184, 0xb2eebff6d1e0cab4, 795, 815, 2, 2190, 48},
    {0x40fb8a5000000000, 400, 0x003689b2d2d16544, 0x0cb33b48716ebf6d, 809, 862, 2, 2090, 48},
    {0x40fb9cf000000000, 400, 0xf519898142335d90, 0xb0dca8943f0f84cf, 792, 805, 12, 1970, 43},
    {0x40fb89d000000000, 400, 0x8f792448fe82f72e, 0x5cf91b7b0df78ca1, 861, 913, 6, 1938, 41},
    {0x40fbae1000000000, 400, 0xe816d25b8357ec30, 0x64373e0717d1d8ba, 1381, 1403, 10, 29474, 88},
    {0x40fb8f1000000000, 400, 0x0f81c46b52c45dba, 0xf02a22194d6b27b6, 1436, 1493, 12, 32757, 97},
    {0x40fb9a3000000000, 400, 0x28f920ae57d7b290, 0x04a7f662c048ec2d, 1374, 1397, 16, 30004, 99},
    {0x40fb89a000000000, 400, 0xdec2d2af94dee086, 0xdfa657fcd9e70f84, 1338, 1397, 6, 28007, 96},
    {0x40fb97e000000000, 400, 0xf5bb3092c1dee6b0, 0xf38d07ee6e173537, 1411, 1433, 9, 28582, 98},
    {0x40fb96c000000000, 400, 0x3af3350f5f23963e, 0x62337e8957c58559, 1410, 1468, 19, 25584, 84},
    {0x40fb3f9000000000, 400, 0x1bbfca1947448110, 0xc0dc01088d211051, 1422, 1407, 1, 437, 101},
    {0x40fb174000000000, 400, 0x035b2463a3181f26, 0x8852539ae9130b27, 1458, 1479, 0, 460, 111},
    {0x40fb767000000000, 400, 0xf70b249f4ceb51d4, 0x3872d6c885f95a99, 1442, 1429, 1, 435, 106},
    {0x40fb244000000000, 400, 0xe25b00991f68c27c, 0xce6dff4390a090cb, 1407, 1430, 2, 415, 100},
    {0x40fb4c9000000000, 400, 0x4ba825462f351b20, 0x9b991b72d4b91793, 1445, 1423, 0, 438, 97},
    {0x40fb254000000000, 400, 0x8c0114d2a768f958, 0x48831535a9658b2a, 1436, 1455, 2, 369, 104},
    {0x40fb920000000000, 400, 0x3ca8eaf779152d7e, 0x8ed40a9c96c5073f, 1403, 1414, 8, 5358, 96},
    {0x40fb6f4000000000, 400, 0x7c29471b972bf988, 0xcfae0a5d75a5485f, 1364, 1406, 5, 4654, 93},
    {0x40fb914000000000, 400, 0x08bf744fae0f28a4, 0xabcddc205264d1c3, 1427, 1436, 10, 5558, 106},
    {0x40fb8b0000000000, 400, 0x97e5b855c9d6a5a1, 0xbac72add71341de0, 1378, 1420, 10, 4595, 91},
    {0x40fb8d7000000000, 400, 0x3859fb593035fac8, 0xe1a239e7b8ca7421, 1391, 1396, 3, 4686, 86},
    {0x40fba5a000000000, 400, 0xc7577bc95e80dcc8, 0x1fff07b7c751fb65, 1408, 1454, 8, 4327, 96},
};
constexpr Pin kSmall[kMatrixSize] = {
    {0x40d6558000000000, 1500, 0x71b09f3ba80b13aa, 0x59fb8bbc728e34eb, 1500, 1585, 0, 4505, 94},
    {0x40d6640000000000, 1500, 0xf3bc321622265a37, 0xd4ed21a3c80e6497, 1500, 1598, 0, 4408, 86},
    {0x40d6690000000000, 1500, 0xb4ad0427bf5a69ae, 0x9f0e10feb2852a7b, 1500, 1584, 1, 4164, 92},
    {0x40d6720000000000, 1500, 0xdc990c358c0a8b2c, 0x5d8f1e7c79e422f3, 1500, 1591, 1, 4216, 95},
    {0x40d6a68000000000, 1500, 0x958d1c51734f172e, 0x16ddd3569f427aa1, 1500, 1616, 2, 6476, 182},
    {0x40d6bec000000000, 1500, 0xbc39a687e09ebf2c, 0xa3579b5173e51960, 1500, 1621, 1, 9739, 267},
    {0x40d61e8000000000, 1500, 0x5a7a6b920548a50b, 0xc6a8134e90fe287f, 1500, 1629, 1, 1643, 87},
    {0x40d6528000000000, 1500, 0x33e5c59de3e83684, 0xe5f6f0c927d64b51, 1500, 1588, 0, 1790, 84},
    {0x40d662c000000000, 1500, 0xd0f753e2a31d4cee, 0xbd1f52cf64d95a15, 1500, 1609, 0, 1522, 92},
    {0x40d6774000000000, 1500, 0x2244d8bfc1176982, 0x37bd7f95792d9c3b, 1500, 1577, 2, 1481, 91},
    {0x40d6478000000000, 1500, 0xcf0e202521572969, 0xf91ffe24cbe56b8d, 1500, 1661, 0, 2263, 193},
    {0x40d6528000000000, 1500, 0x33e5c59de3e83684, 0x0753b54d47bf089c, 1500, 1582, 0, 1763, 96},
    {0x40d6388000000000, 1500, 0xab1ddad839b09bac, 0x2ef718e83ee76587, 1500, 1597, 1, 4315, 97},
    {0x40d65c4000000000, 1500, 0x4d7db417c23d92ae, 0x0610a145082ec8ef, 1500, 1583, 0, 4476, 88},
    {0x40d64c0000000000, 1500, 0x47d0ceddae427a6d, 0xe77b0bcbbc4e0b3d, 1500, 1598, 1, 4066, 89},
    {0x40d6870000000000, 1500, 0x579a6f1b23bd3beb, 0x32a83a30a1abec33, 1500, 1584, 2, 4190, 92},
    {0x40d649c000000000, 1500, 0xab6ef4131a7169ae, 0xe366488e3c695f51, 1500, 1643, 0, 8369, 223},
    {0x40d6864000000000, 1500, 0x83644e58dfe6e72c, 0x6b92d718dbbcf923, 1500, 1585, 3, 4759, 102},
    {0x40d657c000000000, 1500, 0xd38c58c40ab9b7d6, 0xdaf3ac74161a11cc, 2960, 3058, 3, 24309, 255},
    {0x40d69c0000000000, 1500, 0xbbf512968b5c692e, 0x5d5b126d61e5d849, 3047, 3089, 0, 25720, 254},
    {0x40d665c000000000, 1500, 0xbb53194c1f98c0eb, 0xa8a1a101bc072843, 2956, 3040, 2, 24607, 279},
    {0x40d68d8000000000, 1500, 0x6bbae1524520d8cf, 0xea3ecbaee4613c37, 3039, 3082, 2, 25429, 259},
    {0x40d6664000000000, 1500, 0x343fe11cdc77beda, 0xf9e1679e6c03ef6b, 3027, 3110, 2, 15750, 171},
    {0x40d6870000000000, 1500, 0x340c61596daa7917, 0x4683cb48606edb36, 2999, 3058, 2, 20073, 201},
    {0x40d6088000000000, 1500, 0x8a3142a3240dd172, 0xede16667ccf875da, 2962, 3054, 0, 2777, 235},
    {0x40d69c0000000000, 1500, 0xbbf512968b5c692e, 0xe9fb421500863b36, 2963, 2968, 0, 2743, 241},
    {0x40d6390000000000, 1500, 0xeca14cea9f0f735a, 0xb4939da578318e04, 2959, 3045, 3, 2844, 235},
    {0x40d67c8000000000, 1500, 0x17622cbf1adc11da, 0x1212319a3915edbd, 2984, 3012, 1, 2853, 227},
    {0x40d5f84000000000, 1500, 0x0f62f451886e5488, 0xf89281514ddb441a, 3005, 3066, 1, 1783, 145},
    {0x40d64b0000000000, 1500, 0x7bf5cb04663c692e, 0xb03b1de0f9800291, 3042, 3041, 1, 1688, 142},
    {0x40d6570000000000, 1500, 0x24335bd99da0ddef, 0xb38b38c329d4aed6, 2983, 3084, 1, 19620, 249},
    {0x40d6520000000000, 1500, 0x98275e6c2c56bc69, 0x198783340009afd8, 3052, 3101, 7, 20266, 238},
    {0x40d65f4000000000, 1500, 0xea88762266d885c9, 0x6e79e1e4973c4a07, 2974, 3059, 1, 19336, 237},
    {0x40d66f0000000000, 1500, 0x856326568599e72c, 0x12bb9587a0e97059, 2991, 3065, 5, 19609, 236},
    {0x40d6874000000000, 1500, 0xafb1a8b1a47b61d6, 0x66cbc9be34bb7e8c, 3033, 3104, 0, 11463, 154},
    {0x40d6690000000000, 1500, 0xb4ad0427bf5a69ae, 0xc6756a9479c77039, 2996, 3053, 2, 14979, 194},
    {0x40d6640000000000, 1500, 0xc8a697e04bfa0992, 0xb30e13828f8c8c63, 5268, 5370, 0, 98665, 528},
    {0x40d67b0000000000, 1500, 0xebe6f32572a9e613, 0x1c830de03a9045e0, 5197, 5260, 4, 93933, 469},
    {0x40d6664000000000, 1500, 0x66eef51d23cbdf72, 0x7d750c0e214d5013, 5258, 5346, 1, 97267, 502},
    {0x40d68d0000000000, 1500, 0xf5a93dbdffbc0c04, 0xf923a5fcd1372caa, 5273, 5324, 0, 96543, 498},
    {0x40d6728000000000, 1500, 0xad8c9fba5cf3a613, 0x0018c68b07666a78, 5237, 5310, 0, 54347, 326},
    {0x40d6810000000000, 1500, 0x01384b5b743413ae, 0x586168e3b88487a3, 5292, 5325, 4, 57406, 356},
    {0x40d6234000000000, 1500, 0x2992b244b60d09b2, 0xc14ecbbcb006d385, 5350, 5374, 0, 8327, 491},
    {0x40d65f4000000000, 1500, 0xdd55781e0ef9336f, 0x94b9eb0c6237a546, 5142, 5123, 1, 7994, 476},
    {0x40d6380000000000, 1500, 0x155619e5eb21b5ef, 0xc56477c825061fa5, 5328, 5368, 1, 8101, 522},
    {0x40d6528000000000, 1500, 0x33e5c59de3e83684, 0xa9a6923afe142303, 5339, 5314, 3, 8420, 488},
    {0x40d6610000000000, 1500, 0xe017e599043634a4, 0x05a42d3d4f09b2ba, 5208, 5246, 0, 4033, 333},
    {0x40d6870000000000, 1500, 0x340c61596daa7917, 0xe821f719a7dd547c, 5234, 5197, 1, 3979, 311},
    {0x40d63c4000000000, 1500, 0x0a00899c8f8862da, 0xf1247646eae2b1a4, 5252, 5351, 0, 77963, 505},
    {0x40d6654000000000, 1500, 0x165c4c6ec566b395, 0x55397b8afd1b7c61, 5216, 5260, 3, 77434, 495},
    {0x40d6720000000000, 1500, 0xb423ca0d9539b7d6, 0xe40b715ac11e6c19, 5097, 5195, 2, 73025, 478},
    {0x40d6858000000000, 1500, 0x65ac692103a5bc69, 0x80048a418544aa62, 5209, 5256, 3, 75770, 538},
    {0x40d6620000000000, 1500, 0xf3b9cc1e54b7df72, 0x3d8473486236b9a5, 5289, 5356, 2, 38716, 313},
    {0x40d66dc000000000, 1500, 0xb521936c575a69ae, 0xc3acadcdb7012da1, 5239, 5272, 1, 40330, 323},
};

TEST(GoldenTrajectory, EngineGk30x500) {
  const auto inst = mkp::generate_gk({.num_items = 500, .num_constraints = 30}, 17);
  check_matrix(inst, /*max_moves=*/400, kLarge);
}

TEST(GoldenTrajectory, EngineGk5x100) {
  const auto inst = mkp::generate_gk({.num_items = 100, .num_constraints = 5}, 18);
  check_matrix(inst, /*max_moves=*/1500, kSmall);
}

constexpr std::uint64_t kCts2Best = 0x40fc630000000000;
// Per RoundLog in timeline order (round-major, then slave).
constexpr std::uint64_t kCts2FinalValues[] = {
    0x40fc5d4000000000, 0x40fc309000000000, 0x40fc4ee000000000, 0x40fc455000000000,
    0x40fc5d4000000000, 0x40fc4d2000000000, 0x40fc527000000000, 0x40fc5b1000000000,
    0x40fc5d4000000000, 0x40fc562000000000, 0x40fc527000000000, 0x40fc630000000000,
    0x40fc5d4000000000, 0x40fc5a7000000000, 0x40fc527000000000, 0x40fc630000000000,
};

TEST(GoldenTrajectory, Cts2ThreadBackend) {
  const auto inst = mkp::generate_gk({.num_items = 500, .num_constraints = 30}, 19);
  parallel::ParallelConfig config;
  config.mode = parallel::CooperationMode::kCooperativeAdaptive;
  config.backend = parallel::Backend::kThread;
  config.num_slaves = 4;
  config.search_iterations = 4;
  config.work_per_slave_round = 300;
  config.base_params.strategy.nb_local = 20;
  config.mix_intensification = true;
  config.seed = 7;
  const auto result = parallel::run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok());

  std::string actual_rows;
  std::vector<std::uint64_t> finals;
  for (const auto& log : result.master.timeline) {
    finals.push_back(std::bit_cast<std::uint64_t>(log.final_value));
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 ", ", finals.back());
    actual_rows += buf;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.best_value), kCts2Best)
      << "actual: 0x" << std::hex << std::bit_cast<std::uint64_t>(result.best_value);
  EXPECT_EQ(finals, std::vector<std::uint64_t>(std::begin(kCts2FinalValues),
                                               std::end(kCts2FinalValues)))
      << "actual final values: {" << actual_rows << "}";
}

}  // namespace
}  // namespace pts::tabu
