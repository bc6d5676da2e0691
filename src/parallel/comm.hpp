#pragma once
// Message-passing substrate of the distributed engine: typed point-to-point
// channels with per-(source, destination, tag) FIFO ordering — the guarantee
// MPI provides per communicator/tag. Three transports behind one interface:
//  * SeqComm    — deterministic single-threaded execution (ranks are
//                 interleaved by the caller; receives must find data).
//  * ThreadComm — one std::thread per rank; receives block.
//  * MpiComm    — one OS process per rank over real MPI (mpi_comm.cpp;
//                 built when NGLTS_WITH_MPI=ON, otherwise `makeMpiComm`
//                 throws and the build stays dependency-free).
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nglts::parallel {

/// Which communicator a `DistributedSimulation` exchanges halos over
/// (`--transport` on the distributed scenarios).
enum class Transport : int_t {
  kSeq = 0, ///< SeqComm lockstep — the bitwise reference mode
  kThread,  ///< ThreadComm, one std::thread per rank in one process
  kMpi      ///< MpiComm, one process per rank under mpirun
};

/// Parse "seq" | "thread" | "mpi"; throws `std::invalid_argument` otherwise.
Transport parseTransport(const std::string& s);
/// Inverse of `parseTransport` (for messages and summaries).
std::string transportName(Transport t);

class Communicator {
 public:
  explicit Communicator(int_t ranks) : ranks_(ranks) {}
  virtual ~Communicator() = default;

  int_t ranks() const { return ranks_; }

  /// The one rank this communicator speaks for, or -1 when it serves every
  /// rank in-process (SeqComm/ThreadComm). MpiComm returns its world rank.
  virtual int_t selfRank() const { return -1; }

  virtual void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) = 0;
  /// Pop the oldest message on (from -> to, tag).
  virtual std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) = 0;

  /// Opportunistic, non-blocking progress: drain any already-arrived
  /// messages addressed to `to` into the local inbox and retire completed
  /// sends. A no-op for the in-process transports (delivery is immediate);
  /// MpiComm uses it to progress the exchanges that were in flight during
  /// interior compute.
  virtual void pollInbox(int_t to) { (void)to; }

  /// Total payload bytes sent so far (for the communication experiments).
  /// In-process transports count every rank; MpiComm counts this process.
  virtual std::uint64_t bytesSent() const = 0;
  /// Total messages sent so far — same scope as `bytesSent`. Owning the
  /// counter here keeps `DistStats::messages` a simple before/after delta.
  virtual std::uint64_t messagesSent() const = 0;

  /// Sum `v` over all ranks. Identity for the in-process transports (their
  /// counters are already global); MPI_Allreduce for MpiComm — collective,
  /// every rank's driver must call it at the same point.
  virtual std::uint64_t allreduceSum(std::uint64_t v) const { return v; }

  /// Synchronize all ranks. No-op in-process; MPI_Barrier for MpiComm.
  virtual void barrier() {}

 protected:
  int_t ranks_;
};

/// Deterministic non-blocking mailbox; recv throws if the message has not
/// been sent yet (a schedule bug).
class SeqComm final : public Communicator {
 public:
  explicit SeqComm(int_t ranks);
  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override;
  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override;
  std::uint64_t bytesSent() const override { return bytes_; }
  std::uint64_t messagesSent() const override { return messages_; }

 private:
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::queue<std::vector<std::uint8_t>>> box_;
  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
};

/// Thread-safe blocking mailbox.
class ThreadComm final : public Communicator {
 public:
  explicit ThreadComm(int_t ranks);
  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override;
  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override;
  std::uint64_t bytesSent() const override;
  std::uint64_t messagesSent() const override;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::queue<std::vector<std::uint8_t>>> box_;
  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
};

/// Factory type for injecting a custom communicator into the distributed
/// driver (`DistConfig::commFactory`) — the test/bench seam behind the
/// adversarial-ordering stress tests.
using CommFactory = std::function<std::unique_ptr<Communicator>(int_t ranks)>;

// -- MPI transport (mpi_comm.cpp) -------------------------------------------

/// Whether this binary was built with real MPI (NGLTS_WITH_MPI=ON).
bool mpiSupport();

/// Initialize MPI (MPI_THREAD_FUNNELED — the driver communicates outside
/// its OpenMP regions). Idempotent; a no-op in stub builds. Call before
/// constructing an MPI-transport simulation.
void mpiInit(int* argc, char*** argv);
/// Finalize MPI if this process initialized it. No-op in stub builds.
void mpiFinalize();

/// World rank / size, valid after `mpiInit`; 0 / 1 in stub builds (so
/// root-only output guards work transport-agnostically).
int_t mpiWorldRank();
int_t mpiWorldSize();

/// Create the MPI-backed communicator over MPI_COMM_WORLD. `ranks` must
/// equal the world size. Throws `std::runtime_error` in stub builds with a
/// message naming NGLTS_WITH_MPI.
std::unique_ptr<Communicator> makeMpiComm(int_t ranks);

} // namespace nglts::parallel
