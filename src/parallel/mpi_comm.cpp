// MpiComm: the real-transport backend of `parallel::Communicator` — one OS
// process per rank over MPI_COMM_WORLD. The whole file is dual-mode: with
// NGLTS_WITH_MPI the implementation below talks to <mpi.h>; without it the
// same entry points compile as a dependency-free stub (`mpiSupport()` is
// false, `makeMpiComm` throws) so the default build never needs an MPI
// installation.
//
// Mapping the Communicator contract onto MPI:
//  * Logical tags are 64-bit: halo channel keys (producer cluster *
//    kMaxClusters + consumer cluster, dist_sim.hpp) and the negative tags of
//    the receiver gather, which no MPI tag can carry. So every message
//    travels on ONE fixed MPI tag per (src, dst) pair with the logical tag
//    prepended as an 8-byte header. The receiver demultiplexes arrivals
//    into per-(src, tag) inbox queues; MPI's per-(src, comm, tag) ordering
//    plus stable queues preserve the per-channel FIFO contract exactly.
//  * Sends are MPI_Isend with the frame kept alive in a pending list —
//    the halo protocol posts all of a cluster's sends before any receive,
//    which would deadlock with blocking rendezvous sends. Completed
//    requests are retired opportunistically on every send/recv/poll.
//  * recv() drains arrivals (blocking MPI_Probe when the wanted channel is
//    empty); pollInbox() is the non-blocking variant the engine calls
//    after each neighbor op's interior compute, before the receives.
#include "parallel/comm.hpp"

#include <cstring>
#include <stdexcept>

#ifdef NGLTS_WITH_MPI
#include <mpi.h>
#endif

namespace nglts::parallel {

#ifdef NGLTS_WITH_MPI

namespace {

constexpr int kChannelTag = 0; ///< the one MPI tag all payload frames use

bool g_initializedHere = false;

void checkMpi(int err, const char* what) {
  if (err != MPI_SUCCESS)
    throw std::runtime_error(std::string("MpiComm: ") + what + " failed (MPI error " +
                             std::to_string(err) + ")");
}

class MpiComm final : public Communicator {
 public:
  explicit MpiComm(int_t ranks) : Communicator(ranks) {
    int flag = 0;
    MPI_Initialized(&flag);
    if (!flag)
      throw std::runtime_error("MpiComm: MPI not initialized — call parallel::mpiInit first");
    int size = 0, rank = 0;
    checkMpi(MPI_Comm_size(MPI_COMM_WORLD, &size), "MPI_Comm_size");
    checkMpi(MPI_Comm_rank(MPI_COMM_WORLD, &rank), "MPI_Comm_rank");
    if (static_cast<int_t>(size) != ranks)
      throw std::invalid_argument("MpiComm: partition has " + std::to_string(ranks) +
                                  " ranks but mpirun launched " + std::to_string(size) +
                                  " processes");
    self_ = static_cast<int_t>(rank);
  }

  ~MpiComm() override {
    // Drain our own in-flight sends; their receivers either consumed them
    // already or the run is being torn down anyway.
    for (auto& p : pending_) MPI_Wait(&p.request, MPI_STATUS_IGNORE);
  }

  int_t selfRank() const override { return self_; }

  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override {
    if (from != self_)
      throw std::logic_error("MpiComm::send: rank " + std::to_string(self_) +
                             " cannot send on behalf of rank " + std::to_string(from));
    bytes_ += data.size();
    ++messages_;
    if (to == self_) { // infrastructure self-delivery (e.g. gather on root)
      inbox_[{self_, tag}].push(std::move(data));
      return;
    }
    Pending p;
    p.frame.resize(sizeof(std::int64_t) + data.size());
    std::memcpy(p.frame.data(), &tag, sizeof(std::int64_t));
    std::memcpy(p.frame.data() + sizeof(std::int64_t), data.data(), data.size());
    checkMpi(MPI_Isend(p.frame.data(), static_cast<int>(p.frame.size()), MPI_BYTE,
                       static_cast<int>(to), kChannelTag, MPI_COMM_WORLD, &p.request),
             "MPI_Isend");
    pending_.push_back(std::move(p));
    retireCompletedSends();
  }

  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override {
    if (to != self_)
      throw std::logic_error("MpiComm::recv: rank " + std::to_string(self_) +
                             " cannot receive on behalf of rank " + std::to_string(to));
    const auto key = std::make_pair(from, tag);
    for (;;) {
      auto it = inbox_.find(key);
      if (it != inbox_.end() && !it->second.empty()) {
        std::vector<std::uint8_t> data = std::move(it->second.front());
        it->second.pop();
        return data;
      }
      // Blocking drain of the next arrival from `from`; messages on other
      // logical tags are stashed until their recv asks for them.
      drainOne(from);
      retireCompletedSends();
    }
  }

  void pollInbox(int_t to) override {
    if (to != self_) return;
    int flag = 1;
    while (flag) {
      MPI_Status status;
      checkMpi(MPI_Iprobe(MPI_ANY_SOURCE, kChannelTag, MPI_COMM_WORLD, &flag, &status),
               "MPI_Iprobe");
      if (flag) receiveFrame(status);
    }
    retireCompletedSends();
  }

  std::uint64_t bytesSent() const override { return bytes_; }
  std::uint64_t messagesSent() const override { return messages_; }

  std::uint64_t allreduceSum(std::uint64_t v) const override {
    std::uint64_t sum = 0;
    checkMpi(MPI_Allreduce(&v, &sum, 1, MPI_UINT64_T, MPI_SUM, MPI_COMM_WORLD),
             "MPI_Allreduce");
    return sum;
  }

  void barrier() override { checkMpi(MPI_Barrier(MPI_COMM_WORLD), "MPI_Barrier"); }

 private:
  struct Pending {
    MPI_Request request = MPI_REQUEST_NULL;
    std::vector<std::uint8_t> frame;
  };

  void drainOne(int_t from) {
    MPI_Status status;
    checkMpi(MPI_Probe(static_cast<int>(from), kChannelTag, MPI_COMM_WORLD, &status),
             "MPI_Probe");
    receiveFrame(status);
  }

  void receiveFrame(const MPI_Status& status) {
    int count = 0;
    checkMpi(MPI_Get_count(const_cast<MPI_Status*>(&status), MPI_BYTE, &count),
             "MPI_Get_count");
    if (count < static_cast<int>(sizeof(std::int64_t)))
      throw std::runtime_error("MpiComm: frame shorter than its tag header");
    std::vector<std::uint8_t> frame(static_cast<std::size_t>(count));
    checkMpi(MPI_Recv(frame.data(), count, MPI_BYTE, status.MPI_SOURCE, kChannelTag,
                      MPI_COMM_WORLD, MPI_STATUS_IGNORE),
             "MPI_Recv");
    std::int64_t tag = 0;
    std::memcpy(&tag, frame.data(), sizeof(std::int64_t));
    std::vector<std::uint8_t> payload(frame.begin() + sizeof(std::int64_t), frame.end());
    inbox_[{static_cast<int_t>(status.MPI_SOURCE), tag}].push(std::move(payload));
  }

  void retireCompletedSends() {
    for (std::size_t i = 0; i < pending_.size();) {
      int done = 0;
      checkMpi(MPI_Test(&pending_[i].request, &done, MPI_STATUS_IGNORE), "MPI_Test");
      if (done) {
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
      } else {
        ++i;
      }
    }
  }

  int_t self_ = 0;
  std::vector<Pending> pending_;
  std::map<std::pair<int_t, std::int64_t>, std::queue<std::vector<std::uint8_t>>> inbox_;
  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
};

} // namespace

bool mpiSupport() { return true; }

void mpiInit(int* argc, char*** argv) {
  int flag = 0;
  MPI_Initialized(&flag);
  if (flag) return;
  int provided = 0;
  checkMpi(MPI_Init_thread(argc, argv, MPI_THREAD_FUNNELED, &provided), "MPI_Init_thread");
  g_initializedHere = true;
}

void mpiFinalize() {
  if (!g_initializedHere) return;
  int finalized = 0;
  MPI_Finalized(&finalized);
  if (!finalized) MPI_Finalize();
  g_initializedHere = false;
}

int_t mpiWorldRank() {
  int flag = 0;
  MPI_Initialized(&flag);
  if (!flag) return 0;
  int rank = 0;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  return static_cast<int_t>(rank);
}

int_t mpiWorldSize() {
  int flag = 0;
  MPI_Initialized(&flag);
  if (!flag) return 1;
  int size = 0;
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  return static_cast<int_t>(size);
}

std::unique_ptr<Communicator> makeMpiComm(int_t ranks) {
  return std::make_unique<MpiComm>(ranks);
}

#else // ----------------------------- stub build ----------------------------

bool mpiSupport() { return false; }

void mpiInit(int*, char***) {}
void mpiFinalize() {}
int_t mpiWorldRank() { return 0; }
int_t mpiWorldSize() { return 1; }

std::unique_ptr<Communicator> makeMpiComm(int_t) {
  throw std::runtime_error(
      "MPI transport requested but this binary was built without MPI support "
      "(reconfigure with -DNGLTS_WITH_MPI=ON)");
}

#endif

} // namespace nglts::parallel
