// Cross-transport contract tests: the process_shm transport must be
// observably identical to the threads transport through the public
// Communicator surface — p2p matching, Request wait/test, collectives,
// the error contract (first failure by rank order, rank 0 with its
// original type), trace and kv-instant aggregation, and bitwise solver
// results.
//
// gtest caveat under process_shm: EXPECT/ASSERT failures inside forked
// rank processes are invisible to the parent's test result. Every check
// here therefore either runs on rank 0 (the launching process) or is
// funneled to rank 0 through a collective first.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "obs/json_check.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "smpi/cart.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"
#include "scoped_env.h"

namespace {

using jitfd::grid::Grid;
using jitfd::models::AcousticModel;
using jitfd::models::ElasticModel;
using jitfd::models::TtiModel;
using jitfd::sparse::Injection;
using jitfd::sparse::SparseFunction;
using smpi::CartComm;
using smpi::Communicator;
using smpi::RankError;
using smpi::ReduceOp;
using smpi::Request;
using smpi::TransportKind;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;

using jitfd::test::ScopedEnv;

// --- Transport selection ----------------------------------------------------

TEST(TransportSelect, FromStringIsStrict) {
  EXPECT_EQ(smpi::transport_from_string("threads"), TransportKind::Threads);
  EXPECT_EQ(smpi::transport_from_string("process_shm"),
            TransportKind::ProcessShm);
  try {
    smpi::transport_from_string("pthread");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    // The error must name the valid values, not just reject.
    EXPECT_NE(std::string(ex.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(ex.what()).find("process_shm"), std::string::npos);
  }
}

TEST(TransportSelect, DefaultFollowsEnvStrictly) {
  {
    const ScopedEnv env("JITFD_TRANSPORT", "process_shm");
    EXPECT_EQ(smpi::default_transport(), TransportKind::ProcessShm);
  }
  {
    const ScopedEnv env("JITFD_TRANSPORT", "threads");
    EXPECT_EQ(smpi::default_transport(), TransportKind::Threads);
  }
  {
    const ScopedEnv env("JITFD_TRANSPORT", "forks");
    EXPECT_THROW(smpi::default_transport(), std::invalid_argument);
  }
}

TEST(TransportSelect, ExplicitOptionBeatsEnv) {
  const ScopedEnv env("JITFD_TRANSPORT", "process_shm");
  // Pinning Threads must ignore the env var: verify via a shared-memory
  // side effect that only rank threads (same address space) can produce.
  int visits = 0;
  smpi::launch({.nranks = 3, .transport = TransportKind::Threads},
               [&](Communicator& comm) {
                 (void)comm;
                 __atomic_fetch_add(&visits, 1, __ATOMIC_RELAXED);
               });
  EXPECT_EQ(visits, 3);
}

// --- Cross-transport parity (parameterized) ---------------------------------

class TransportParity : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportParity,
    ::testing::Values(TransportKind::Threads, TransportKind::ProcessShm),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return info.param == TransportKind::Threads ? "Threads" : "ProcessShm";
    });

TEST_P(TransportParity, EveryRankRunsAndSeesItsOwnRank) {
  std::vector<std::int64_t> sums;
  smpi::launch({.nranks = 4, .transport = GetParam()},
               [&](Communicator& comm) {
                 std::vector<std::int64_t> v{comm.rank(), 1};
                 comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   sums = v;
                 }
               });
  ASSERT_EQ(sums.size(), 2U);
  EXPECT_EQ(sums[0], 0 + 1 + 2 + 3);
  EXPECT_EQ(sums[1], 4);  // Each rank ran exactly once.
}

TEST_P(TransportParity, RequestWaitAndTestAgree) {
  smpi::launch({.nranks = 2, .transport = GetParam()}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int a = 0;
      std::vector<float> b(512, 0.0F);
      Request ra = comm.irecv(&a, sizeof(int), 1, 1);
      Request rb = comm.irecv(b.data(), b.size() * sizeof(float), 1, 2);
      EXPECT_FALSE(ra.test());  // Nothing sent yet.
      comm.barrier();           // Sender fires after both are posted.
      while (!ra.test()) {
      }
      EXPECT_EQ(a, 77);
      const smpi::Status st = rb.wait();
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(st.bytes, b.size() * sizeof(float));
      EXPECT_FLOAT_EQ(b[13], 13.0F);
      // A completed request stays completed.
      EXPECT_TRUE(ra.test());
      EXPECT_TRUE(rb.test());
    } else {
      comm.barrier();
      const int v = 77;
      comm.send_n(&v, 1, 0, 1);
      std::vector<float> payload(512);
      std::iota(payload.begin(), payload.end(), 0.0F);
      comm.send(payload.data(), payload.size() * sizeof(float), 0, 2);
    }
  });
}

TEST_P(TransportParity, MatchingSemanticsObservedFromRankZero) {
  smpi::launch({.nranks = 3, .transport = GetParam()}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // Both senders have queued their messages.
      // Tag selection among pending messages.
      int got = 0;
      comm.recv_n(&got, 1, 1, 2);
      EXPECT_EQ(got, 20);
      comm.recv_n(&got, 1, 1, 1);
      EXPECT_EQ(got, 10);
      // Non-overtaking per (source, tag).
      for (int i = 0; i < 16; ++i) {
        comm.recv_n(&got, 1, 2, 3);
        EXPECT_EQ(got, i);
      }
      // Any-source / any-tag still drains in arrival order.
      const int fin = 99;
      (void)fin;
      comm.barrier();
    } else if (comm.rank() == 1) {
      const int a = 10;
      const int b = 20;
      comm.send_n(&a, 1, 0, 1);
      comm.send_n(&b, 1, 0, 2);
      comm.barrier();
      comm.barrier();
    } else {
      for (int i = 0; i < 16; ++i) {
        comm.send_n(&i, 1, 0, 3);
      }
      comm.barrier();
      comm.barrier();
    }
  });
}

TEST_P(TransportParity, CollectivesAgree) {
  std::vector<double> stats;
  std::vector<int> gathered;
  int bcast_seen_sum = -1;
  smpi::launch({.nranks = 4, .transport = GetParam()},
               [&](Communicator& comm) {
                 const double r = comm.rank() + 1.0;
                 std::vector<double> v{r, r, r, r};
                 comm.allreduce(std::span<double>(v).subspan(0, 1),
                                ReduceOp::Sum);
                 comm.allreduce(std::span<double>(v).subspan(1, 1),
                                ReduceOp::Min);
                 comm.allreduce(std::span<double>(v).subspan(2, 1),
                                ReduceOp::Max);
                 comm.allreduce(std::span<double>(v).subspan(3, 1),
                                ReduceOp::Prod);

                 int root_val = (comm.rank() == 2) ? 123 : 0;
                 comm.bcast(&root_val, sizeof(int), 2);
                 // Prove every rank saw the broadcast, not just rank 0.
                 std::vector<std::int64_t> ok{root_val == 123 ? 1 : 0};
                 comm.allreduce(std::span<std::int64_t>(ok), ReduceOp::Sum);

                 const int mine = comm.rank() + 1;
                 std::vector<int> all(comm.rank() == 0 ? 4 : 0);
                 comm.gather(&mine, sizeof(int), all.data(), 0);

                 if (comm.rank() == 0) {
                   stats = v;
                   gathered = all;
                   bcast_seen_sum = static_cast<int>(ok[0]);
                 }
               });
  ASSERT_EQ(stats.size(), 4U);
  EXPECT_DOUBLE_EQ(stats[0], 10.0);
  EXPECT_DOUBLE_EQ(stats[1], 1.0);
  EXPECT_DOUBLE_EQ(stats[2], 4.0);
  EXPECT_DOUBLE_EQ(stats[3], 24.0);
  EXPECT_EQ(gathered, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(bcast_seen_sum, 4);
}

TEST_P(TransportParity, LargeBidirectionalMessagesDoNotDeadlock) {
  // Payloads far beyond the shared ring capacity, sent from both sides
  // before either receive is posted: buffered-send semantics must hold
  // on every transport (the basic halo pattern relies on it).
  smpi::launch({.nranks = 2, .transport = GetParam(), .shm_ring_kb = 16},
               [](Communicator& comm) {
                 const int other = 1 - comm.rank();
                 std::vector<double> out(1 << 16, comm.rank() + 1.0);
                 std::vector<double> in(1 << 16, 0.0);
                 comm.send(out.data(), out.size() * sizeof(double), other, 11);
                 comm.recv(in.data(), in.size() * sizeof(double), other, 11);
                 std::vector<std::int64_t> ok{
                     in.front() == other + 1.0 && in.back() == other + 1.0
                         ? 1
                         : 0};
                 comm.allreduce(std::span<std::int64_t>(ok), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   EXPECT_EQ(ok[0], 2);
                 }
               });
}

TEST_P(TransportParity, FirstErrorByRankOrderWins) {
  // Ranks 1 and 3 both fail; the contract reports rank 1 regardless of
  // which one's failure is noticed first.
  try {
    smpi::launch({.nranks = 4, .transport = GetParam()},
                 [](Communicator& comm) {
                   if (comm.rank() == 1) {
                     throw std::runtime_error("boom from 1");
                   }
                   if (comm.rank() == 3) {
                     throw std::runtime_error("boom from 3");
                   }
                 });
    FAIL() << "expected an exception";
  } catch (const std::exception& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("boom from 1"), std::string::npos) << what;
    EXPECT_EQ(what.find("boom from 3"), std::string::npos) << what;
  }
}

TEST_P(TransportParity, EveryRanksKvInstantSurvivesTheLaunch) {
  obs::set_enabled(true);
  const bool obs_built = obs::enabled();
  obs::set_enabled(false);
  if (!obs_built) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  {
    const obs::EnableScope scope(true);  // Inherited by forked children.
    smpi::launch({.nranks = 3, .transport = GetParam()},
                 [](Communicator& comm) {
                   obs::instant("transport.kv_probe", obs::Cat::Solver,
                                10 + comm.rank(),
                                {{"rank", comm.rank()},
                                 {"half", 0.5},
                                 {"big", 1e300}});
                   comm.barrier();
                 });
  }
  const obs::TraceData data = obs::collect();
  int seen[3] = {0, 0, 0};
  for (const auto& rec : data.events) {
    if (rec.name != "transport.kv_probe") {
      continue;
    }
    ASSERT_TRUE(rec.rank >= 0 && rec.rank < 3) << rec.rank;
    ++seen[rec.rank];
    EXPECT_EQ(rec.cat, obs::Cat::Solver);
    EXPECT_EQ(rec.a0, 10 + rec.rank);
    const std::vector<std::pair<std::string, double>> want = {
        {"rank", rec.rank}, {"half", 0.5}, {"big", 1e300}};
    EXPECT_EQ(rec.args, want) << "rank " << rec.rank;
  }
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 1);  // Spooled by the rank-1 process under process_shm.
  EXPECT_EQ(seen[2], 1);
  const obs::SchemaCheck check =
      obs::validate_events_json(obs::events_json(data));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.items, 3);
  obs::reset();
}

// --- Error contract specifics of process_shm --------------------------------

struct CustomFailure : std::runtime_error {
  CustomFailure() : std::runtime_error("custom failure on rank 0") {}
};

TEST(TransportErrors, RankZeroKeepsItsOriginalExceptionType) {
  // Rank 0 runs in the launching process, so its exception must arrive
  // unflattened even though child errors cross a process boundary.
  EXPECT_THROW(
      smpi::launch({.nranks = 3, .transport = TransportKind::ProcessShm},
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       throw CustomFailure();
                     }
                   }),
      CustomFailure);
}

TEST(TransportErrors, ChildFailureArrivesAsRankErrorWithRankAndMessage) {
  try {
    smpi::launch({.nranks = 4, .transport = TransportKind::ProcessShm},
                 [](Communicator& comm) {
                   if (comm.rank() == 2) {
                     throw std::logic_error("child detonated");
                   }
                 });
    FAIL() << "expected RankError";
  } catch (const RankError& ex) {
    EXPECT_EQ(ex.rank(), 2);
    EXPECT_NE(std::string(ex.what()).find("child detonated"),
              std::string::npos);
  }
}

TEST(TransportErrors, CleanLaunchAfterFailedLaunch) {
  // A failed launch must fully reap its children and shared segment so
  // the next launch starts from a clean slate.
  EXPECT_THROW(
      smpi::launch({.nranks = 2, .transport = TransportKind::ProcessShm},
                   [](Communicator& comm) {
                     if (comm.rank() == 1) {
                       throw std::runtime_error("first launch fails");
                     }
                   }),
      RankError);
  std::int64_t sum = -1;
  smpi::launch({.nranks = 2, .transport = TransportKind::ProcessShm},
               [&](Communicator& comm) {
                 std::vector<std::int64_t> v{comm.rank() + 1};
                 comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   sum = v[0];
                 }
               });
  EXPECT_EQ(sum, 3);
}

// --- Oversubscription -------------------------------------------------------

TEST(TransportOversubscribe, SixteenRankCartOnProcessShm) {
  // 16 rank processes on whatever cores the runner has: far past core
  // count on CI. A 2x2x4 topology exercises coords, shifts and a full
  // neighbour exchange along the fastest-varying dimension.
  std::int64_t rank_sum = -1;
  std::int64_t mismatches = -1;
  smpi::launch(
      {.nranks = 16, .transport = TransportKind::ProcessShm},
      [&](Communicator& comm) {
        CartComm cart(comm, {2, 2, 4});
        std::int64_t bad = 0;
        if (cart.rank_of(cart.my_coords()) != comm.rank()) {
          ++bad;
        }
        // Neighbour exchange along dim 2: send my rank right, receive
        // from the left; boundaries are kProcNull (no-op partners).
        const auto sh = cart.shift(2, 1);
        const std::int64_t mine = comm.rank();
        std::int64_t theirs = -1;
        comm.sendrecv(&mine, sizeof(mine), sh.dest, 7, &theirs,
                      sizeof(theirs), sh.source, 7);
        if (sh.source != smpi::kProcNull && theirs != sh.source) {
          ++bad;
        }
        std::vector<std::int64_t> v{comm.rank(), bad};
        comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
        if (comm.rank() == 0) {
          rank_sum = v[0];
          mismatches = v[1];
        }
      });
  EXPECT_EQ(rank_sum, 16 * 15 / 2);
  EXPECT_EQ(mismatches, 0);
}

// --- Trace aggregation ------------------------------------------------------

TEST(TransportTrace, ChildTracesMergeIntoParentRegistry) {
  obs::set_enabled(true);
  const bool obs_built = obs::enabled();
  obs::set_enabled(false);
  if (!obs_built) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  const obs::EnableScope scope(true);  // Inherited by forked children.
  smpi::launch({.nranks = 3, .transport = TransportKind::ProcessShm},
               [](Communicator& comm) {
                 {
                   const obs::Span span("transport.trace_probe",
                                        obs::Cat::Run, comm.rank());
                 }
                 comm.barrier();
               });
  const obs::TraceData data = obs::collect();
  bool seen[3] = {false, false, false};
  std::uint64_t t0[3] = {0, 0, 0};
  for (const auto& rec : data.events) {
    if (rec.name == "transport.trace_probe" && rec.rank >= 0 &&
        rec.rank < 3) {
      seen[rec.rank] = true;
      t0[rec.rank] = rec.t0_ns;
    }
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);  // Imported from the rank-1 process.
  EXPECT_TRUE(seen[2]);
  // Epoch realignment: all three probes ran within one launch, so after
  // the monotonic-clock shift they must land within a few seconds of
  // each other rather than ages apart.
  const std::uint64_t lo = std::min({t0[0], t0[1], t0[2]});
  const std::uint64_t hi = std::max({t0[0], t0[1], t0[2]});
  EXPECT_LT(hi - lo, 30ull * 1000 * 1000 * 1000);

  obs::reset();  // Imported records are dropped with everything else.
  const obs::TraceData after = obs::collect();
  for (const auto& rec : after.events) {
    EXPECT_NE(rec.name, "transport.trace_probe");
  }
}

// --- Bitwise solver equivalence ---------------------------------------------

/// Drives one source-injected simulation of `Model` on 4 ranks over the
/// given transport and returns the rank-0 gather of the final wavefield.
template <typename Model>
std::vector<float> run_distributed(TransportKind kind, ir::MpiMode mode,
                                   int exchange_depth) {
  const std::int64_t n = 20;
  const int steps = 8;
  const int so = 4;
  std::vector<float> out;
  smpi::launch({.nranks = 4, .transport = kind}, [&](Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    Model model(g, so);
    const SparseFunction src(
        "src", g, {{g.extent()[0] / 2 + 0.013, g.extent()[1] / 2 - 0.027}});
    const double dt = model.critical_dt();
    Injection inj(
        model.wavefield(), src,
        [dt](std::int64_t t) { return jitfd::sparse::ricker(t * dt, 6.0, 0.3); },
        nullptr, 1);
    ir::CompileOptions opts;
    opts.mode = mode;
    opts.exchange_depth = exchange_depth;
    auto op = model.make_operator(opts, {&inj});
    op->apply({.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});
    const int nb = model.wavefield().time_buffers();
    auto got = model.wavefield().gather((steps + 1) % nb);
    if (comm.rank() == 0) {
      out = std::move(got);
    }
  });
  return out;
}

/// The acceptance gate: identical rank counts and compile options must
/// produce byte-identical wavefields on both transports, for every halo
/// pattern and exchange depth.
template <typename Model>
void expect_bitwise_transport_equivalence() {
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    for (const int depth : {1, 2}) {
      SCOPED_TRACE(std::string("mode=") + ir::to_string(mode) +
                   " depth=" + std::to_string(depth));
      const std::vector<float> threads =
          run_distributed<Model>(TransportKind::Threads, mode, depth);
      const std::vector<float> procs =
          run_distributed<Model>(TransportKind::ProcessShm, mode, depth);
      ASSERT_FALSE(threads.empty());
      ASSERT_EQ(threads.size(), procs.size());
      const int cmp = std::memcmp(threads.data(), procs.data(),
                                  threads.size() * sizeof(float));
      if (cmp != 0) {
        for (std::size_t i = 0; i < threads.size(); ++i) {
          ASSERT_EQ(threads[i], procs[i]) << "first divergence at " << i;
        }
      }
      EXPECT_EQ(cmp, 0);
    }
  }
}

TEST(TransportEquivalence, AcousticBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<AcousticModel>();
}

TEST(TransportEquivalence, ElasticBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<ElasticModel>();
}

TEST(TransportEquivalence, TtiBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<TtiModel>();
}

}  // namespace
