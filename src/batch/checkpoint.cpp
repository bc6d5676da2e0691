#include "batch/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "pre/config_hash.hpp"

namespace nglts::batch {

namespace {

constexpr char kMagic[8] = {'N', 'G', 'L', 'T', 'S', 'N', 'A', 'P'};
// Header bytes before the optional state block: magic + 5 u32 + 3 u64.
constexpr std::size_t kHeaderBytes = 8 + 5 * 4 + 3 * 8;

// On-disk precision tags. Kept as explicit constants rather
// than casts of `solver::Precision` so a reordering of that enum can never
// silently change the file format.
constexpr std::uint32_t kPrecTagF64 = 0;
constexpr std::uint32_t kPrecTagF32 = 1;

template <typename Real>
constexpr std::uint32_t precisionTagOf() {
  static_assert(std::is_same_v<Real, double> || std::is_same_v<Real, float>);
  return std::is_same_v<Real, float> ? kPrecTagF32 : kPrecTagF64;
}

/// The trailer: FNV-1a 64 over the bytes before it.
std::uint64_t checksum(const unsigned char* p, std::size_t n) {
  pre::ConfigHasher h;
  h.bytes(p, n);
  return h.digest();
}

class Writer {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void u32(std::uint32_t v) {
    unsigned char le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    bytes(le, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    bytes(le, 8);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  const std::vector<unsigned char>& data() const { return buf_; }
  void appendChecksum() { u64(checksum(buf_.data(), buf_.size())); }

 private:
  std::vector<unsigned char> buf_;
};

class Reader {
 public:
  Reader(const std::vector<unsigned char>& buf, const std::string& path)
      : buf_(buf), path_(path) {}

  void bytes(void* out, std::size_t n) {
    if (pos_ + n > buf_.size())
      throw std::runtime_error("snapshot '" + path_ + "' is truncated");
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }
  std::uint32_t u32() {
    unsigned char le[4];
    bytes(le, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(le[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    unsigned char le[8];
    bytes(le, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(le[i]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

 private:
  const std::vector<unsigned char>& buf_;
  std::string path_;
  std::size_t pos_ = 0;
};

std::vector<unsigned char> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open snapshot '" + path + "'");
  std::vector<unsigned char> buf((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  return buf;
}

/// Validate magic, version and the trailing checksum; returns the parsed
/// header. Order matters: an old/new-format file must fail with a version
/// message, not a checksum one, so version is checked first.
SnapshotInfo validateAndParseHeader(const std::vector<unsigned char>& buf,
                                    const std::string& path) {
  if (buf.size() < kHeaderBytes + 8)
    throw std::runtime_error("snapshot '" + path + "' is truncated");
  if (std::memcmp(buf.data(), kMagic, 8) != 0)
    throw std::runtime_error("'" + path + "' is not an nglts snapshot (bad magic)");
  Reader r(buf, path);
  char magic[8];
  r.bytes(magic, 8);
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    throw std::runtime_error("snapshot '" + path + "' has version " + std::to_string(version) +
                             ", this build reads version " + std::to_string(kSnapshotVersion));
  const std::uint64_t expect = checksum(buf.data(), buf.size() - 8);
  std::uint64_t trailer = 0;
  for (int i = 0; i < 8; ++i)
    trailer |= static_cast<std::uint64_t>(buf[buf.size() - 8 + i]) << (8 * i);
  if (trailer != expect)
    throw std::runtime_error("snapshot '" + path + "' is corrupted or truncated (checksum mismatch)");
  SnapshotInfo info;
  info.realSize = r.u32();
  info.width = r.u32();
  info.hasState = r.u32() != 0;
  const std::uint32_t tag = r.u32();
  if (tag != kPrecTagF64 && tag != kPrecTagF32)
    throw std::runtime_error("snapshot '" + path + "' has unknown precision tag " +
                             std::to_string(tag));
  info.precision = tag == kPrecTagF32 ? solver::Precision::kF32 : solver::Precision::kF64;
  info.batchFingerprint = r.u64();
  info.runIndex = r.u64();
  info.cyclesDone = r.u64();
  return info;
}

void writeAtomically(const std::string& path, const std::vector<unsigned char>& buf) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write snapshot '" + tmp + "'");
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("short write on snapshot '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot rename snapshot '" + tmp + "' -> '" + path + "'");
}

/// Snapshots read and write DOFs through the engine's global-id accessors,
/// which under MPI reach only this process's elements; there is no gather.
template <typename Real, int W>
void rejectMpi(const solver::Simulation<Real, W>& sim, const char* what) {
  if (sim.localRank() >= 0 && sim.ranks() > 1)
    throw std::invalid_argument(std::string(what) +
                                ": checkpoints of a multi-rank MPI run are not supported");
}

} // namespace

SnapshotInfo peekSnapshot(const std::string& path) {
  return validateAndParseHeader(readFile(path), path);
}

template <typename Real, int W>
void saveSnapshot(const std::string& path, std::uint64_t batchFingerprint, std::uint64_t runIndex,
                  std::uint64_t cyclesDone, const solver::Simulation<Real, W>* sim) {
  if (sim) rejectMpi(*sim, "saveSnapshot");
  Writer w;
  w.bytes(kMagic, 8);
  w.u32(kSnapshotVersion);
  w.u32(sim ? static_cast<std::uint32_t>(sizeof(Real)) : 0);
  w.u32(sim ? static_cast<std::uint32_t>(W) : 0);
  w.u32(sim ? 1 : 0);
  // Run-boundary markers carry the batch's precision too: restore rejects a
  // precision flip before it ever rebuilds a simulation.
  w.u32(precisionTagOf<Real>());
  w.u64(batchFingerprint);
  w.u64(runIndex);
  w.u64(cyclesDone);

  if (sim) {
    const idx_t n = sim->meshRef().numElements();
    const std::size_t elSize = sim->kernels().dofsPerElement();
    w.u64(static_cast<std::uint64_t>(n));
    w.u64(elSize);
    w.u64(static_cast<std::uint64_t>(sim->clustering().numClusters));
    for (idx_t e = 0; e < n; ++e) w.bytes(sim->dofs(e), elSize * sizeof(Real));

    w.u64(static_cast<std::uint64_t>(sim->numReceivers()));
    for (idx_t r = 0; r < sim->numReceivers(); ++r) {
      const auto& traces = sim->receiver(r).traces;
      w.u64(traces.size());
      for (const seismo::Seismogram& s : traces) {
        w.u64(s.times.size());
        for (double t : s.times) w.f64(t);
        for (const auto& v : s.values)
          for (double x : v) w.f64(x);
      }
    }
  }

  w.appendChecksum();
  writeAtomically(path, w.data());
}

template <typename Real, int W>
SnapshotInfo loadSnapshot(const std::string& path, solver::Simulation<Real, W>& sim) {
  rejectMpi(sim, "loadSnapshot");
  const std::vector<unsigned char> buf = readFile(path);
  const SnapshotInfo info = validateAndParseHeader(buf, path);
  if (!info.hasState)
    throw std::runtime_error("snapshot '" + path + "' is a run-boundary marker, carries no state");
  // Precision is checked before the raw sizeof(Real)/W geometry so a user
  // who flipped --precision between save and restore gets told exactly that
  // (realSize would also mismatch, but with a far less actionable message).
  const auto want = solver::precisionOf<Real>();
  if (info.precision != want)
    throw std::runtime_error(
        "snapshot '" + path + "' was saved at precision " +
        std::string(solver::precisionName(info.precision)) + " but this run uses " +
        std::string(solver::precisionName(want)) + "; re-run with --precision " +
        std::string(solver::precisionName(info.precision)) + " or start fresh without --restore");
  if (info.realSize != sizeof(Real) || info.width != static_cast<std::uint32_t>(W))
    throw std::runtime_error("snapshot '" + path + "' was saved with sizeof(Real)=" +
                             std::to_string(info.realSize) + ", W=" + std::to_string(info.width) +
                             " but this simulation uses sizeof(Real)=" +
                             std::to_string(sizeof(Real)) + ", W=" + std::to_string(W));

  Reader r(buf, path);
  std::vector<char> skip(kHeaderBytes);
  r.bytes(skip.data(), skip.size());

  const idx_t n = sim.meshRef().numElements();
  const std::size_t elSize = sim.kernels().dofsPerElement();
  const int_t nc = sim.clustering().numClusters;
  const auto savedN = r.u64();
  const auto savedElSize = r.u64();
  const auto savedClusters = r.u64();
  if (savedN != static_cast<std::uint64_t>(n) || savedElSize != elSize ||
      savedClusters != static_cast<std::uint64_t>(nc))
    throw std::runtime_error("snapshot '" + path +
                             "' does not match this simulation's element count, DOFs per "
                             "element or cluster count (different mesh or configuration)");
  // Cluster 0 steps cyclesDone * 2^(nc - 1) times; that count must fit idx_t.
  if (info.cyclesDone > static_cast<std::uint64_t>(std::numeric_limits<idx_t>::max() >> (nc - 1)))
    throw std::runtime_error("snapshot '" + path + "' has an out-of-range cycle count " +
                             std::to_string(info.cyclesDone));
  for (idx_t e = 0; e < n; ++e) r.bytes(sim.dofs(e), elSize * sizeof(Real));

  const auto numReceivers = r.u64();
  if (numReceivers != static_cast<std::uint64_t>(sim.numReceivers()))
    throw std::runtime_error("snapshot '" + path + "' holds " + std::to_string(numReceivers) +
                             " receivers, this simulation has " +
                             std::to_string(sim.numReceivers()));
  for (idx_t rec = 0; rec < sim.numReceivers(); ++rec) {
    const auto lanes = r.u64();
    auto& traces = sim.receiverMut(rec).traces;
    if (lanes != traces.size())
      throw std::runtime_error("snapshot '" + path + "' receiver " + std::to_string(rec) +
                               " lane count mismatch");
    for (auto& s : traces) {
      const auto samples = r.u64();
      s.times.resize(samples);
      s.values.resize(samples);
      for (auto& t : s.times) t = r.f64();
      for (auto& v : s.values)
        for (auto& x : v) x = r.f64();
    }
  }
  sim.resumeAtCycle(info.cyclesDone);
  return info;
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_SNAPSHOT_IO, )

} // namespace nglts::batch
