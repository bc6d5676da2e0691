#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "lts/schedule.hpp"
#include "mesh/box_gen.hpp"
#include "parallel/comm.hpp"
#include "parallel/dist_sim.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"

namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace ns = nglts::solver;
namespace nlts = nglts::lts;
using nglts::idx_t;
using nglts::int_t;

TEST(Comm, SeqFifoOrder) {
  npar::SeqComm c(2);
  c.send(0, 1, 7, {1});
  c.send(0, 1, 7, {2});
  EXPECT_EQ(c.recv(1, 0, 7)[0], 1);
  EXPECT_EQ(c.recv(1, 0, 7)[0], 2);
  EXPECT_EQ(c.bytesSent(), 2u);
  EXPECT_EQ(c.messagesSent(), 2u);
}

TEST(Comm, ParseTransportRoundTrip) {
  EXPECT_EQ(npar::parseTransport("seq"), npar::Transport::kSeq);
  EXPECT_EQ(npar::parseTransport("thread"), npar::Transport::kThread);
  EXPECT_EQ(npar::parseTransport("mpi"), npar::Transport::kMpi);
  EXPECT_THROW(npar::parseTransport("tcp"), std::invalid_argument);
  EXPECT_EQ(npar::transportName(npar::Transport::kSeq), "seq");
  EXPECT_EQ(npar::transportName(npar::Transport::kThread), "thread");
  EXPECT_EQ(npar::transportName(npar::Transport::kMpi), "mpi");
}

TEST(Comm, MpiStubSingleProcessSemantics) {
  // Without NGLTS_WITH_MPI the stub must behave like a one-process world
  // (so root-only output guards stay transport-agnostic) and creating the
  // communicator must fail loudly, naming the CMake switch.
  if (npar::mpiSupport()) GTEST_SKIP() << "built with real MPI";
  npar::mpiInit(nullptr, nullptr); // documented no-op
  EXPECT_EQ(npar::mpiWorldRank(), 0);
  EXPECT_EQ(npar::mpiWorldSize(), 1);
  try {
    npar::makeMpiComm(1);
    FAIL() << "stub makeMpiComm must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("NGLTS_WITH_MPI"), std::string::npos) << e.what();
  }
  npar::mpiFinalize(); // documented no-op
}

TEST(Comm, SeqMissingMessageThrows) {
  npar::SeqComm c(2);
  EXPECT_THROW(c.recv(1, 0, 3), std::runtime_error);
}

TEST(Comm, TagsIsolateChannels) {
  npar::SeqComm c(2);
  c.send(0, 1, 1, {10});
  c.send(0, 1, 2, {20});
  EXPECT_EQ(c.recv(1, 0, 2)[0], 20);
  EXPECT_EQ(c.recv(1, 0, 1)[0], 10);
}

TEST(Comm, ThreadBlockingRecv) {
  npar::ThreadComm c(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.send(0, 1, 5, {42});
  });
  const auto msg = c.recv(1, 0, 5);
  producer.join();
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(msg[0], 42);
}

TEST(Comm, ThreadFifoStressManyRanksSmallMessages) {
  // Many ranks, many small messages, randomized interleave via per-rank
  // yield loops: every (src, dst, tag) channel must deliver in FIFO order
  // and bytesSent() must account for every payload byte exactly once.
  const int_t ranks = 8;
  const int rounds = 40;
  const std::int64_t tags[] = {0, 7, 11};
  npar::ThreadComm comm(ranks);
  std::atomic<std::uint64_t> sentBytes{0};
  std::atomic<std::uint64_t> sentMessages{0};
  std::atomic<int> fifoViolations{0};

  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (int_t r = 0; r < ranks; ++r)
    threads.emplace_back([&, r] {
      std::mt19937 rng(1234u + static_cast<unsigned>(r));
      for (int k = 0; k < rounds; ++k) {
        // Send round k to every peer on every tag, yielding a random number
        // of times between sends to shuffle the global interleaving.
        for (int_t dst = 0; dst < ranks; ++dst) {
          if (dst == r) continue;
          for (std::int64_t tag : tags) {
            std::vector<std::uint8_t> msg(1 + static_cast<std::size_t>(rng() % 4),
                                          static_cast<std::uint8_t>(r));
            msg[0] = static_cast<std::uint8_t>(k); // sequence number
            sentBytes += msg.size();
            ++sentMessages;
            comm.send(r, dst, tag, std::move(msg));
            for (unsigned y = rng() % 4; y > 0; --y) std::this_thread::yield();
          }
        }
        // Receive round k from every peer; blocking receives interleave
        // with the other ranks' sends.
        for (int_t src = 0; src < ranks; ++src) {
          if (src == r) continue;
          for (std::int64_t tag : tags) {
            const auto msg = comm.recv(r, src, tag);
            if (msg.empty() || msg[0] != static_cast<std::uint8_t>(k)) ++fifoViolations;
            for (unsigned y = rng() % 3; y > 0; --y) std::this_thread::yield();
          }
        }
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(fifoViolations.load(), 0);
  EXPECT_EQ(comm.bytesSent(), sentBytes.load());
  EXPECT_EQ(comm.messagesSent(), sentMessages.load());
}

namespace {

struct DistFixture {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

DistFixture makeFixture(idx_t n = 5) {
  DistFixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  f.mesh = nm::generateBox(spec);
  f.mats.resize(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double vs = f.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    f.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return f;
}

std::vector<int_t> stripePartition(const nm::TetMesh& mesh, int_t parts, double extent) {
  std::vector<int_t> p(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const int_t s = static_cast<int_t>(mesh.centroid(e)[0] / extent * parts);
    p[e] = std::min(parts - 1, s);
  }
  return p;
}

npar::DistConfig makeDistConfig(bool compress = true,
                                npar::Transport transport = npar::Transport::kSeq) {
  npar::DistConfig cfg;
  cfg.sim.order = 3;
  cfg.sim.scheme = ns::TimeScheme::kLtsNextGen;
  cfg.sim.numClusters = 3;
  cfg.compressFaces = compress;
  cfg.transport = transport;
  return cfg;
}

} // namespace

TEST(DistributedSim, CompressionReducesBytes) {
  const DistFixture f = makeFixture();
  const auto part = stripePartition(f.mesh, 4, 1000.0);
  auto bytes = [&](bool compress) {
    npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part, makeDistConfig(compress));
    return sim.runCycles(2).commBytes;
  };
  const std::uint64_t bytesCompressed = bytes(true), bytesRaw = bytes(false);
  EXPECT_GT(bytesRaw, 0u);
  // F(3)/B(3) = 6/10 per dataset, message counts identical.
  EXPECT_NEAR(static_cast<double>(bytesCompressed) / bytesRaw, 0.6, 1e-6);
}

TEST(DistributedSim, MeasuredHaloBytesMatchAnalyticCount) {
  // The bytes the exchange ships per cycle equal the analytic Sec. V-C
  // count cycleCommBytes() for every scheme, with and without face
  // compression (the baseline scheme never compresses). The messages are
  // one per halo channel — (sender, receiver, producer cluster, consumer
  // cluster) — and producer step, toward a larger consumer after odd steps
  // only.
  const DistFixture f = makeFixture(6);
  constexpr std::uint64_t kCycles = 2;
  for (const ns::TimeScheme scheme :
       {ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen, ns::TimeScheme::kLtsBaseline})
    for (const bool compress : {true, false})
      for (const int_t ranks : {2, 4}) {
        SCOPED_TRACE("scheme " + std::to_string(static_cast<int>(scheme)) + " compress " +
                     std::to_string(compress) + " ranks " + std::to_string(ranks));
        npar::DistConfig cfg = makeDistConfig(compress);
        cfg.sim.scheme = scheme;
        const auto part = stripePartition(f.mesh, ranks, 1000.0);
        npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part, cfg);
        const auto st = sim.runCycles(kCycles);
        EXPECT_GT(st.commBytes, 0u);
        EXPECT_EQ(st.commBytes, kCycles * sim.cycleCommBytes(part, compress));

        const nlts::Clustering& cl = sim.clustering();
        std::set<std::tuple<int_t, int_t, int_t, int_t>> channels;
        for (idx_t el = 0; el < f.mesh.numElements(); ++el)
          for (const auto& fi : f.mesh.faces[el])
            if (fi.neighbor >= 0 && part[el] != part[fi.neighbor])
              channels.emplace(part[el], part[fi.neighbor], cl.cluster[el],
                               cl.cluster[fi.neighbor]);
        std::uint64_t perCycle = 0;
        for (const auto& [src, dst, producer, consumer] : channels) {
          const idx_t steps = nlts::stepsPerCycle(cl.numClusters, producer);
          perCycle += consumer > producer ? steps / 2 : steps;
        }
        EXPECT_EQ(st.messages, kCycles * perCycle);
      }
}

TEST(DistributedSim, DamagedHaloMessageNamesItsChannel) {
  // A halo message one byte short stops the run with an error naming its
  // channel: the two ranks and the producer and consumer clusters (the tag
  // is producer * kMaxClusters + consumer, dist_sim.hpp).
  class TruncatingComm final : public npar::Communicator {
   public:
    explicit TruncatingComm(int_t ranks) : Communicator(ranks), inner_(ranks) {}
    void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override {
      if (channel.empty()) {
        data.pop_back();
        channel = "from rank " + std::to_string(from) + " to rank " + std::to_string(to) +
                  " (producer cluster " + std::to_string(tag / ns::kMaxClusters) +
                  ", consumer cluster " + std::to_string(tag % ns::kMaxClusters) + ")";
      }
      inner_.send(from, to, tag, std::move(data));
    }
    std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override {
      return inner_.recv(to, from, tag);
    }
    std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
    std::uint64_t messagesSent() const override { return inner_.messagesSent(); }
    std::string channel; ///< the damaged message's channel, as the error names it

   private:
    npar::SeqComm inner_;
  };

  const DistFixture f = makeFixture(4);
  TruncatingComm* comm = nullptr;
  npar::DistConfig cfg = makeDistConfig();
  cfg.commFactory = [&comm](int_t ranks) {
    auto c = std::make_unique<TruncatingComm>(ranks);
    comm = c.get();
    return c;
  };
  npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, stripePartition(f.mesh, 2, 1000.0),
                                             cfg);
  try {
    sim.runCycles(1);
    FAIL() << "a truncated halo message must throw";
  } catch (const std::runtime_error& e) {
    ASSERT_NE(comm, nullptr);
    ASSERT_FALSE(comm->channel.empty());
    EXPECT_NE(std::string(e.what()).find(comm->channel), std::string::npos) << e.what();
  }
}

TEST(DistributedSim, MpiTransportWithoutBuildThrows) {
  // Requesting --transport mpi on a stub build must fail at construction
  // with the actionable makeMpiComm error, not deadlock or fall back.
  if (npar::mpiSupport()) GTEST_SKIP() << "built with real MPI";
  DistFixture f = makeFixture(3);
  npar::DistConfig cfg = makeDistConfig();
  cfg.transport = npar::Transport::kMpi;
  EXPECT_THROW((npar::DistributedSimulation<double, 1>(
                   f.mesh, f.mats, stripePartition(f.mesh, 2, 1000.0), cfg)),
               std::runtime_error);
}

TEST(DistributedSim, EmptyRankThrows) {
  // A rank without elements would deadlock ThreadComm and break the
  // lockstep schedule: the constructor must reject it up front.
  DistFixture f = makeFixture(3);
  std::vector<int_t> part(f.mesh.numElements(), 0);
  part[0] = 2; // ranks {0, 2} populated, rank 1 empty
  EXPECT_THROW((npar::DistributedSimulation<double, 1>(f.mesh, f.mats, part, makeDistConfig())),
               std::invalid_argument);
}

TEST(DistributedSim, BadPartitionsThrow) {
  DistFixture f = makeFixture(3);
  std::vector<int_t> negative(f.mesh.numElements(), 0);
  negative[1] = -1;
  EXPECT_THROW(
      (npar::DistributedSimulation<double, 1>(f.mesh, f.mats, negative, makeDistConfig())),
      std::invalid_argument);
  std::vector<int_t> tooShort(f.mesh.numElements() - 1, 0);
  EXPECT_THROW(
      (npar::DistributedSimulation<double, 1>(f.mesh, f.mats, tooShort, makeDistConfig())),
      std::invalid_argument);
}

TEST(RankArena, OwnedPrefixAndHaloSuffix) {
  // A rank's arena built from the global mesh, its invariants stated in
  // global ids: owned vs halo by `part`, halo faces only link back into the
  // owned set, per-element cluster, and each owned cluster range laid out
  // interior | halo boundary — [haloBoundaryBegin(c), clusterEnd(c)) holds
  // exactly the owned elements with a face neighbor on another rank. With
  // 3 stripes the middle rank's boundary faces two neighbor ranks.
  DistFixture f = makeFixture(5);
  const idx_t n = f.mesh.numElements();
  const auto geo = nm::computeGeometry(f.mesh);
  const auto dt = nglts::lts::cflTimeSteps(geo, f.mats, 3);
  const auto clustering = nglts::lts::buildClustering(f.mesh, dt, 3, 1.0);
  ASSERT_GT(clustering.numClusters, 1);
  const nglts::kernels::AderKernels<double, 1> kernels(3, 0, false);
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.scheme = ns::TimeScheme::kLtsNextGen;
  const auto part = stripePartition(f.mesh, 3, 1000.0);
  for (int_t r = 0; r < 3; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const ns::SolverState<double, 1> st(f.mesh, f.mats, geo, clustering, kernels, cfg, part, r);
    ASSERT_GT(st.numOwned(), 0);
    ASSERT_GT(st.numHalo(), 0) << "stripe cut must produce halo elements";
    auto remoteFace = [&](idx_t g) {
      for (int_t fc = 0; fc < 4; ++fc) {
        const idx_t nb = f.mesh.faces[g][fc].neighbor;
        if (nb >= 0 && part[nb] != r) return true;
      }
      return false;
    };
    std::vector<char> inHalo(n, 0);
    for (idx_t g = 0; g < n; ++g)
      if (part[g] == r)
        for (int_t fc = 0; fc < 4; ++fc) {
          const idx_t nb = f.mesh.faces[g][fc].neighbor;
          if (nb >= 0 && part[nb] != r) inHalo[nb] = 1;
        }

    const auto& m = st.internalMesh();
    idx_t owned = 0, halo = 0;
    for (idx_t g = 0; g < n; ++g) {
      const idx_t in = st.toInternal(g);
      if (part[g] != r && !inHalo[g]) {
        EXPECT_EQ(in, -1) << "element " << g << " has no slot on this rank";
        continue;
      }
      ASSERT_GE(in, 0) << "element " << g;
      EXPECT_EQ(part[g] == r, !st.isHalo(in)) << "element " << g;
      ++(part[g] == r ? owned : halo);
      EXPECT_EQ(st.toExternal(in), g);
      EXPECT_EQ(st.clusterOf(in), clustering.cluster[g]) << "element " << g;
      // Owned faces keep every neighbor; halo faces keep only the links
      // back into the owned set.
      for (int_t fc = 0; fc < 4; ++fc) {
        const idx_t gNb = f.mesh.faces[g][fc].neighbor;
        const idx_t nb = m.faces[in][fc].neighbor;
        const bool kept = gNb >= 0 && (part[g] == r || part[gNb] == r);
        EXPECT_EQ(nb, kept ? st.toInternal(gNb) : -1) << "element " << g << " face " << fc;
      }
    }
    EXPECT_EQ(owned, st.numOwned());
    EXPECT_EQ(halo, st.numHalo());

    // The cluster ranges tile the owned prefix, so checking every element of
    // every range covers each owned element exactly once.
    ASSERT_EQ(st.clusterEnd(st.numClusters() - 1), st.numOwned());
    idx_t boundary = 0;
    for (int_t c = 0; c < st.numClusters(); ++c) {
      ASSERT_LE(st.clusterBegin(c), st.haloBoundaryBegin(c));
      ASSERT_LE(st.haloBoundaryBegin(c), st.clusterEnd(c));
      for (idx_t el = st.clusterBegin(c); el < st.clusterEnd(c); ++el)
        EXPECT_EQ(remoteFace(st.toExternal(el)), el >= st.haloBoundaryBegin(c))
            << "cluster " << c << " element " << st.toExternal(el);
      boundary += st.clusterEnd(c) - st.haloBoundaryBegin(c);
    }
    EXPECT_GT(boundary, 0) << "stripe cut must produce halo-boundary elements";
  }

  // One rank, by an empty partition or an all-zero one (the same code
  // path): no halo, every boundary sub-range empty, the same layout.
  const ns::SolverState<double, 1> single(f.mesh, f.mats, geo, clustering, kernels, cfg);
  const ns::SolverState<double, 1> zero(f.mesh, f.mats, geo, clustering, kernels, cfg,
                                        std::vector<int_t>(n, 0), 0);
  EXPECT_EQ(single.numOwned(), n);
  EXPECT_EQ(single.numHalo(), 0);
  for (int_t c = 0; c < single.numClusters(); ++c)
    EXPECT_EQ(single.haloBoundaryBegin(c), single.clusterEnd(c)) << "cluster " << c;
  for (idx_t g = 0; g < n; ++g) EXPECT_EQ(single.toInternal(g), zero.toInternal(g));
}

TEST(RankArena, B2B3SlotsOnlyWhereANeighborReadsThem) {
  // An owned element keeps a B2 exactly when a face neighbor — on this rank
  // or another, judged by the global clustering — has a smaller cluster
  // (next-gen scheme only), and a B3 exactly when one has a larger cluster
  // (both LTS schemes). The side arenas hold exactly those slots, and
  // buildRank's send-op check (every op reads a buffer that exists) passes.
  const DistFixture f = makeFixture(5);
  for (const ns::TimeScheme scheme :
       {ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen, ns::TimeScheme::kLtsBaseline})
    for (const int_t ranks : {1, 2, 3}) {
      SCOPED_TRACE("scheme " + std::to_string(static_cast<int>(scheme)) + ", " +
                   std::to_string(ranks) + " ranks");
      npar::DistConfig cfg = makeDistConfig();
      cfg.sim.scheme = scheme;
      const npar::DistributedSimulation<double, 1> sim(
          f.mesh, f.mats, stripePartition(f.mesh, ranks, 1000.0), cfg);
      const auto& cl = sim.clustering();
      const bool lts = scheme != ns::TimeScheme::kGts;
      ASSERT_EQ(cl.numClusters, lts ? 3 : 1);
      idx_t b2Total = 0, b3Total = 0;
      for (int_t r = 0; r < ranks; ++r) {
        const auto& st = sim.state(r);
        idx_t b2 = 0, b3 = 0;
        for (idx_t el = 0; el < st.numOwned(); ++el) {
          const idx_t g = st.toExternal(el);
          bool smaller = false, larger = false;
          for (const auto& fi : f.mesh.faces[g]) {
            if (fi.neighbor < 0) continue;
            smaller = smaller || cl.cluster[fi.neighbor] < cl.cluster[g];
            larger = larger || cl.cluster[fi.neighbor] > cl.cluster[g];
          }
          const bool wantB2 = scheme == ns::TimeScheme::kLtsNextGen && smaller;
          const bool wantB3 = lts && larger;
          EXPECT_EQ(st.b2(el) != nullptr, wantB2) << "rank " << r << " element " << g;
          EXPECT_EQ(st.b3(el) != nullptr, wantB3) << "rank " << r << " element " << g;
          b2 += wantB2;
          b3 += wantB3;
        }
        EXPECT_EQ(st.numB2Slots(), b2) << "rank " << r;
        EXPECT_EQ(st.numB3Slots(), b3) << "rank " << r;
        b2Total += b2;
        b3Total += b3;
      }
      // The fixture's clustering leaves both kinds of slot in use, and
      // neither on every element.
      if (scheme == ns::TimeScheme::kLtsNextGen) {
        EXPECT_GT(b2Total, 0);
        EXPECT_LT(b2Total, f.mesh.numElements());
      }
      if (lts) {
        EXPECT_GT(b3Total, 0);
        EXPECT_LT(b3Total, f.mesh.numElements());
      }
    }
}

TEST(DistributedSim, ReceiverElementIsTheCallersId) {
  // `Receiver::element` is the caller's element id on every rank count and
  // transport, for receivers placed on every rank of the stripe cut.
  const DistFixture f = makeFixture();
  const auto geo = nm::computeGeometry(f.mesh);
  const std::vector<std::array<double, 3>> positions = {
      {130.0, 430.0, 470.0}, {480.0, 610.0, 380.0}, {870.0, 270.0, 720.0}};
  for (const int_t ranks : {1, 2, 3})
    for (const npar::Transport transport : {npar::Transport::kSeq, npar::Transport::kThread}) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks, " +
                   std::string(npar::transportName(transport)));
      const auto part = stripePartition(f.mesh, ranks, 1000.0);
      npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part,
                                                 makeDistConfig(true, transport));
      std::vector<char> rankHit(ranks, 0);
      for (std::size_t i = 0; i < positions.size(); ++i) {
        const idx_t want = nm::locatePoint(f.mesh, geo, positions[i]);
        ASSERT_GE(want, 0);
        rankHit[part[want]] = 1;
        ASSERT_EQ(sim.addReceiver(positions[i]), static_cast<idx_t>(i));
        EXPECT_EQ(sim.receiver(static_cast<idx_t>(i)).element, want) << "receiver " << i;
      }
      EXPECT_EQ(std::count(rankHit.begin(), rankHit.end(), 1), ranks)
          << "every rank must hold a receiver";
    }
}
