// Figure 7 — SGX (non-)overhead: middlebox throughput with/without
// encryption and with/without an enclave.
//
// Reproduces: a middlebox fed a saturating stream of records of varying
// payload size ("buffer size" 512 B - 12 KiB) in four configurations:
//   no encryption + no enclave : forward bytes untouched
//   no encryption + enclave    : forward, but each record crosses the
//                                enclave boundary (transition cost burned)
//   encryption + no enclave    : AES-256-GCM open + re-seal per record
//   encryption + enclave       : open + re-seal inside the enclave
// plus one configuration the paper does not plot:
//   encryption + enclave (batched) : as above, but one ECALL carries 32
//                                    records (Knauth et al.'s lever)
//
// Paper result (shape): the enclave makes no noticeable difference (I/O
// interrupt/processing costs dominate boundary crossings), while the
// decrypt+re-encrypt path plateaus at the AES-GCM compute bound.
// Absolute numbers differ from the paper's 40 Gbps testbed: the per-record
// I/O cost is a calibrated model, and the AES-GCM backend is whichever the
// host resolves (AES-NI + PCLMULQDQ where present, else the portable
// T-table path), so the crypto plateau sits elsewhere; the relationships
// between the curves are the experiment.
//
// --enforce: batching ECALLs must close at least 30% of the enclave gap at
// 512 B, gap closed = (batched - one ECALL per record) / (no enclave - one
// ECALL per record), all three with encryption. Exits 1 below the floor.
//
// Also reports the cost of one empty enclave crossing at transition cost 0
// and at the default 8000.
#include <algorithm>
#include <chrono>

#include "bench/bench_common.h"
#include "mbtls/types.h"
#include "sgx/enclave.h"

namespace mbtls::bench {
namespace {

// Per-record network-I/O handling cost (NIC interrupt, kernel stack,
// copies). The paper attributes the *absence* of enclave overhead to exactly
// this cost dominating boundary crossings; the model makes that executable.
// 60k calibration iterations ~ a couple of syscalls + interrupt handling.
constexpr std::uint64_t kIoCostIterations = 60'000;

constexpr std::size_t kBatchedRecords = 32;
constexpr double kGapClosedFloor = 0.30;

struct Config {
  bool encrypt;
  bool enclave;
  std::size_t records_per_ecall;  // 1 = one boundary crossing per record
  const char* name;
};

double run_config(const Config& config, std::size_t buffer_size, double seconds_budget) {
  crypto::Drbg rng_local("fig7", buffer_size);
  const std::size_t key_len = 32;  // AES-256-GCM, as in the paper's prototype

  // Inbound and outbound hop keys (what an mbTLS middlebox holds).
  const tls::HopKeys in_keys = mb::generate_hop_keys(key_len, rng_local);
  const tls::HopKeys out_keys = mb::generate_hop_keys(key_len, rng_local);

  // Pre-seal a batch of records with a *sender-side* channel so the
  // middlebox-side inbound channel can open them in sequence.
  tls::HopChannel sender({in_keys.client_to_server_key, in_keys.client_to_server_iv}, 0);
  const Bytes payload = rng_local.bytes(buffer_size);
  std::vector<Bytes> sealed;
  for (int i = 0; i < 64; ++i) {
    Bytes rec = sender.seal(tls::ContentType::kApplicationData, payload);
    sealed.push_back(Bytes(rec.begin() + tls::kRecordHeaderSize, rec.end()));
  }

  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("fig7-mbox");

  std::uint64_t bytes_moved = 0;
  volatile std::uint64_t sink = 0;
  // Reused across every record: `scratch` holds the inbound body (decrypted
  // in place), `out` receives the re-sealed wire record. Capacity is
  // retained, so the steady-state reprotect path performs no allocation —
  // the same discipline Middlebox::reprotect uses.
  Bytes scratch, out;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds_budget);
  // Fresh open-channel per 64-record pass (sequence numbers restart).
  while (std::chrono::steady_clock::now() < deadline) {
    mb::HopDuplex pass_in(in_keys, key_len);
    mb::HopDuplex pass_out(out_keys, key_len);
    const auto work = [&](const Bytes& record) {
      scratch.assign(record.begin(), record.end());
      if (config.encrypt) {
        auto opened = pass_in.c2s.open_in_place(tls::ContentType::kApplicationData, scratch);
        if (!opened) std::abort();
        out.clear();
        pass_out.c2s.seal_into(tls::ContentType::kApplicationData, *opened, out);
        sink = sink + out.size();
      } else {
        // Plain forwarding: touch the bytes (copy) like a forwarding path.
        sink = sink + scratch.size();
      }
    };
    for (std::size_t first = 0; first < sealed.size(); first += config.records_per_ecall) {
      const std::size_t last = std::min(sealed.size(), first + config.records_per_ecall);
      const auto crypt_group = [&] {
        for (std::size_t i = first; i < last; ++i) work(sealed[i]);
      };
      // recv()/send() handling is per record and stays outside the enclave.
      for (std::size_t i = first; i < last; ++i) sgx::burn_cycles(kIoCostIterations);
      if (config.enclave) {
        enclave.ecall(crypt_group);
      } else {
        crypt_group();
      }
      bytes_moved += (last - first) * buffer_size;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(bytes_moved) * 8.0 / elapsed / 1e9;  // Gbps
}

/// Wall time of one empty ECALL (entry + exit) at `transition_cost`.
double ecall_ns(std::uint64_t transition_cost, double seconds_budget) {
  sgx::Platform platform;
  platform.set_transition_cost(transition_cost);
  sgx::Enclave& enclave = platform.launch("fig7-crossing");
  std::uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds_budget);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) enclave.ecall([] {});
    calls += 64;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return elapsed * 1e9 / static_cast<double>(calls);
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls::bench;
  double budget = 0.25;  // seconds per (config, size) cell
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--seconds" && i + 1 < argc) budget = std::atof(argv[i + 1]);
    if (std::string(argv[i]) == "--enforce") enforce = true;
  }
  const std::string json_path = json_arg(argc, argv);
  const std::size_t sizes[] = {512, 1024, 2048, 4096, 8192, 12288};
  const Config configs[] = {
      {false, false, 1, "No Encryption + No Enclave"},
      {false, true, 1, "No Encryption + Enclave"},
      {true, false, 1, "Encryption + No Enclave"},
      {true, true, 1, "Encryption + Enclave"},
      {true, true, kBatchedRecords, "Encryption + Enclave (batched)"},
  };
  std::printf("=== Figure 7: middlebox throughput (Gbps) vs record buffer size ===\n");
  std::printf("SGX transition cost model: ~8000 cycles per boundary crossing; the batched\n");
  std::printf("row carries %zu records per ECALL.\n\n", kBatchedRecords);
  std::printf("%-32s", "config \\ buffer");
  for (const auto s : sizes) std::printf("%8zuB", s);
  std::printf("\n");
  Json rows = Json::array();
  double gbps_512[std::size(configs)] = {};
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    const Config& config = configs[c];
    std::printf("%-32s", config.name);
    for (const auto size : sizes) {
      const double gbps = run_config(config, size, budget);
      if (size == 512) gbps_512[c] = gbps;
      std::printf("%9.3f", gbps);
      rows.push(Json::object()
                    .add("config", std::string(config.name))
                    .add("buffer_bytes", static_cast<double>(size))
                    .add("gbps", gbps));
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape to check: enclave vs no-enclave nearly indistinguishable within each\n"
      "encryption mode; the encryption rows plateau at the AES-GCM compute bound while\n"
      "the forwarding rows keep scaling with buffer size.\n");

  // The enclave gap at 512 B, where the per-record crossing bites hardest
  // relative to the crypto, and the share of it that batching closes.
  const double no_enclave = gbps_512[2], per_record = gbps_512[3], batched = gbps_512[4];
  const double gap = no_enclave - per_record;
  const double gap_closed = gap > 0 ? (batched - per_record) / gap : 1.0;
  std::printf("\nenclave gap closed by %zu-record ECALLs @512B: %.0f%% (floor %.0f%%)\n",
              kBatchedRecords, gap_closed * 100.0, kGapClosedFloor * 100.0);

  const double crossing_ns_0 = ecall_ns(0, budget);
  const double crossing_ns_8000 = ecall_ns(8000, budget);
  std::printf("one empty ECALL (entry + exit): %.0f ns at transition cost 0, %.1f us at 8000\n",
              crossing_ns_0, crossing_ns_8000 / 1e3);

  if (!json_path.empty()) {
    const Json summary = Json::object()
                             .add("batched_records_per_ecall", static_cast<double>(kBatchedRecords))
                             .add("enclave_gap_closed_512b", gap_closed)
                             .add("enclave_gap_closed_floor", kGapClosedFloor)
                             .add("ecall_ns_transition_cost_0", crossing_ns_0)
                             .add("ecall_ns_transition_cost_8000", crossing_ns_8000);
    Json doc = Json::object().add("bench", std::string("fig7_sgx_throughput"));
    add_backend_fields(doc).add("rows", rows).add("summary", summary);
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (enforce && gap_closed < kGapClosedFloor) {
    std::fprintf(stderr, "bench_fig7: enclave gap closed %.2f < floor %.2f\n", gap_closed,
                 kGapClosedFloor);
    return 1;
  }
  return 0;
}
