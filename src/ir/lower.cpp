#include "ir/lower.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "obs/trace.h"
#include "symbolic/cse.h"
#include "symbolic/manip.h"

namespace jitfd::ir {

const char* to_string(MpiMode mode) {
  switch (mode) {
    case MpiMode::None:
      return "none";
    case MpiMode::Basic:
      return "basic";
    case MpiMode::Diagonal:
      return "diagonal";
    case MpiMode::Full:
      return "full";
  }
  return "?";
}

MpiMode mode_from_string(const std::string& name) {
  if (name == "basic" || name == "1") {
    return MpiMode::Basic;
  }
  if (name == "diagonal" || name == "diag" || name == "diag2") {
    return MpiMode::Diagonal;
  }
  if (name == "full") {
    return MpiMode::Full;
  }
  if (name == "none" || name == "0" || name.empty()) {
    return MpiMode::None;
  }
  throw std::invalid_argument("unknown MPI mode '" + name + "'");
}

namespace {

/// A group of equations sharing one loop nest.
struct Cluster {
  std::vector<Eq> eqs;
  std::vector<sym::Temp> point_temps;  ///< Innermost-scope scalar temps.
  std::vector<HaloNeed> needs;         ///< Halo exchanges due before it.
};

bool has_nonzero_offset(const sym::ExprNode& access) {
  return std::any_of(access.space_offsets.begin(), access.space_offsets.end(),
                     [](int o) { return o != 0; });
}

/// Must `eq` start a new cluster given the equations already in `c`?
/// True when fusing would break a cross-point dependence: `eq` reads, at a
/// nonzero space offset, a (field, time) that `c` writes (flow), or `eq`
/// writes a (field, time) that `c` reads at a nonzero offset (anti).
bool needs_fission(const Cluster& c, const Eq& eq) {
  for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
    const sym::ExprNode& n = a.node();
    if (!has_nonzero_offset(n)) {
      continue;
    }
    for (const Eq& prev : c.eqs) {
      if (prev.write_field().id == n.field.id &&
          prev.write_time_offset() == n.time_offset) {
        return true;
      }
    }
  }
  for (const Eq& prev : c.eqs) {
    for (const sym::Ex& a : sym::field_accesses(prev.rhs)) {
      const sym::ExprNode& n = a.node();
      if (has_nonzero_offset(n) && n.field.id == eq.write_field().id &&
          n.time_offset == eq.write_time_offset()) {
        return true;
      }
    }
  }
  return false;
}

std::vector<Cluster> build_clusters(const std::vector<Eq>& eqs) {
  std::vector<Cluster> clusters;
  for (const Eq& eq : eqs) {
    if (clusters.empty() || needs_fission(clusters.back(), eq)) {
      clusters.emplace_back();
    }
    clusters.back().eqs.push_back(eq);
  }
  return clusters;
}

/// Apply factorization, global invariant extraction and per-cluster CSE.
/// Invariant temps are returned through `info`; CSE temps stay with their
/// cluster. Temp numbering is shared so generated names never collide.
void flop_reduce(std::vector<Cluster>& clusters, LoweringInfo& info) {
  std::vector<sym::Ex> all;
  for (Cluster& c : clusters) {
    for (Eq& eq : c.eqs) {
      all.push_back(sym::factorize(eq.rhs));
    }
  }
  auto inv = sym::extract_invariants(std::move(all), "r", 0);
  info.invariants = std::move(inv.temps);
  int counter = static_cast<int>(info.invariants.size());

  std::size_t cursor = 0;
  for (Cluster& c : clusters) {
    std::vector<sym::Ex> rhss(inv.exprs.begin() + cursor,
                              inv.exprs.begin() + cursor + c.eqs.size());
    cursor += c.eqs.size();
    auto reduced = sym::cse(std::move(rhss), "r", counter);
    counter += static_cast<int>(reduced.temps.size());
    c.point_temps = std::move(reduced.temps);
    for (std::size_t i = 0; i < c.eqs.size(); ++i) {
      c.eqs[i].rhs = reduced.exprs[i];
    }
  }
}

/// Compute the halo needs of each cluster and the hoisted (one-off)
/// exchanges of time-invariant parameter fields. The clean-set analysis
/// implements the paper's HaloSpot drop/merge/hoist pass.
std::vector<HaloNeed> analyze_halos(std::vector<Cluster>& clusters,
                                    const grid::Grid& grid, bool halo_opt) {
  std::vector<HaloNeed> hoisted;
  if (!grid.distributed()) {
    return hoisted;
  }
  const std::vector<int>& topo = grid.topology();

  // Fields written inside the time loop can never have their exchange
  // hoisted, even if they are not time-varying (e.g. CIRE scratch arrays
  // recomputed every step).
  std::set<int> written;
  for (const Cluster& c : clusters) {
    for (const Eq& eq : c.eqs) {
      written.insert(eq.write_field().id);
    }
  }

  // (field id, time offset) pairs whose halo is up to date at this point
  // of a timestep.
  std::set<std::pair<int, int>> clean;
  std::set<int> hoisted_fields;

  for (Cluster& c : clusters) {
    // Reads live both in the equations and in the CSE temporaries that
    // flop reduction factored out of them.
    std::vector<sym::Ex> rhss;
    for (const Eq& eq : c.eqs) {
      rhss.push_back(eq.rhs);
    }
    for (const sym::Temp& t : c.point_temps) {
      rhss.push_back(t.value);
    }
    for (const ReadFootprint& fp : read_footprints(rhss)) {
      for (const auto& [time_offset, widths] : fp.widths_by_time) {
        // Only decomposed dimensions need exchanging.
        std::vector<int> eff(widths.size(), 0);
        bool any = false;
        for (std::size_t d = 0; d < widths.size(); ++d) {
          if (topo[d] > 1 && widths[d] > 0) {
            eff[d] = widths[d];
            any = true;
          }
        }
        if (!any) {
          continue;
        }
        if (halo_opt && !fp.field.time_varying &&
            written.count(fp.field.id) == 0) {
          // Parameter field: hoist a single exchange before the time loop
          // (widest footprint wins if seen twice).
          auto it = std::find_if(hoisted.begin(), hoisted.end(),
                                 [&](const HaloNeed& h) {
                                   return h.field_id == fp.field.id;
                                 });
          if (it == hoisted.end()) {
            hoisted.push_back(HaloNeed{fp.field.id, 0, eff});
            hoisted_fields.insert(fp.field.id);
          } else {
            for (std::size_t d = 0; d < eff.size(); ++d) {
              it->widths[d] = std::max(it->widths[d], eff[d]);
            }
          }
          continue;
        }
        const std::pair<int, int> key{fp.field.id, time_offset};
        if (halo_opt && clean.count(key) > 0) {
          continue;  // Dropped: a previous spot already updated it.
        }
        // Merge into an existing need of this cluster if present.
        auto it = std::find_if(c.needs.begin(), c.needs.end(),
                               [&](const HaloNeed& h) {
                                 return h.field_id == key.first &&
                                        h.time_offset == key.second;
                               });
        if (it == c.needs.end()) {
          c.needs.push_back(HaloNeed{fp.field.id, time_offset, eff});
        } else {
          for (std::size_t d = 0; d < eff.size(); ++d) {
            it->widths[d] = std::max(it->widths[d], eff[d]);
          }
        }
        clean.insert(key);
      }
    }
    // Writes dirty the written buffer again.
    for (const Eq& eq : c.eqs) {
      clean.erase({eq.write_field().id, eq.write_time_offset()});
    }
  }
  return hoisted;
}

/// Strip plan for communication-avoiding stepping (exchange_depth > 1).
///
/// One strip executes k sub-steps between halo exchanges. Every ghost
/// value a sub-step reads must come either from the one exchange at the
/// strip top (reads of buffers produced before the strip) or from a
/// redundant in-strip ghost-zone write that is at least as deep as the
/// read requires. The plan records the exchanges and the per-(sub-step,
/// cluster) ghost extensions; plan_deep_halo() verifies both conditions
/// computationally and fails (-> clamp to a shallower k) otherwise.
struct DeepHaloPlan {
  int k = 1;
  std::vector<HaloNeed> strip_needs;  ///< Exchanged once at each strip top.
  std::vector<HaloNeed> hoisted;      ///< Widened parameter-field hoists.
  /// ext[j][c][d]: ghost-zone extension of cluster c at sub-step j.
  std::vector<std::vector<std::vector<int>>> ext;
  /// Per-cluster maximum read width (the full-mode CORE inset).
  std::vector<std::vector<int>> width;
};

/// Try to build a depth-k strip plan. Extensions follow the chain rule:
/// with per-cluster stale-propagating widths w_c (reads of time-varying
/// fields only), W = sum_c w_c and suffix sums S_c = sum_{c'>c} w_c',
/// cluster c at sub-step j computes ghost points to depth
/// ext[j][c] = (k-1-j)*W + S_c — each consumer loses its own read width
/// relative to its producers, so the last sub-step lands exactly on the
/// owned region. Returns false (with a reason) when the plan would
/// exceed allocated halos or read a ghost value nobody provides.
bool plan_deep_halo(const std::vector<Cluster>& clusters,
                    const grid::Grid& grid, bool halo_opt, int k,
                    DeepHaloPlan& plan, std::string& why) {
  const std::vector<int>& topo = grid.topology();
  const int nd = grid.ndims();
  const std::size_t nc = clusters.size();
  const auto und = static_cast<std::size_t>(nd);

  struct Read {
    sym::FieldId field;
    int off = 0;
    std::vector<int> w;  ///< Per-dim width; zero on undecomposed dims.
  };
  struct Write {
    int field = -1;
    int off = 0;
    std::size_t cluster = 0;
  };
  std::vector<std::vector<Read>> reads(nc);
  std::vector<Write> writes;
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const Cluster& c = clusters[ci];
    std::vector<sym::Ex> rhss;
    for (const Eq& eq : c.eqs) {
      rhss.push_back(eq.rhs);
    }
    for (const sym::Temp& t : c.point_temps) {
      rhss.push_back(t.value);
    }
    for (const ReadFootprint& fp : read_footprints(rhss)) {
      for (const auto& [off, widths] : fp.widths_by_time) {
        std::vector<int> eff(und, 0);
        for (int d = 0; d < nd; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          if (topo[ud] > 1) {
            eff[ud] = widths[ud];
          }
        }
        reads[ci].push_back(Read{fp.field, off, std::move(eff)});
      }
    }
    for (const Eq& eq : c.eqs) {
      if (!eq.write_field().time_varying) {
        why = "time-invariant field '" + eq.write_field().name +
              "' is written inside the time loop";
        return false;
      }
      writes.push_back(Write{eq.write_field().id, eq.write_time_offset(), ci});
    }
  }

  auto field_halo = [&](const sym::FieldId& f) {
    const grid::Function* fn = grid::lookup_field(f.id);
    return fn != nullptr ? fn->halo() : -1;
  };

  // Stale-propagating chain widths (time-varying reads only: parameter
  // fields are refreshed to full depth up front and never go stale) and
  // the per-cluster maximum over all reads (the full-mode CORE inset,
  // which must dodge every in-flight receive).
  std::vector<std::vector<int>> cw(nc, std::vector<int>(und, 0));
  plan.width.assign(nc, std::vector<int>(und, 0));
  for (std::size_t ci = 0; ci < nc; ++ci) {
    for (const Read& r : reads[ci]) {
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        plan.width[ci][ud] = std::max(plan.width[ci][ud], r.w[ud]);
        if (r.field.time_varying) {
          cw[ci][ud] = std::max(cw[ci][ud], r.w[ud]);
        }
      }
    }
  }
  std::vector<int> W(und, 0);
  for (const auto& w : cw) {
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      W[ud] += w[ud];
    }
  }
  std::vector<std::vector<int>> suffix(nc, std::vector<int>(und, 0));
  for (std::size_t ci = nc; ci-- > 0;) {
    if (ci + 1 < nc) {
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        suffix[ci][ud] = suffix[ci + 1][ud] + cw[ci + 1][ud];
      }
    }
  }
  plan.ext.assign(static_cast<std::size_t>(k), {});
  for (int j = 0; j < k; ++j) {
    auto& per_cluster = plan.ext[static_cast<std::size_t>(j)];
    per_cluster.assign(nc, std::vector<int>(und, 0));
    for (std::size_t ci = 0; ci < nc; ++ci) {
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        per_cluster[ci][ud] = (k - 1 - j) * W[ud] + suffix[ci][ud];
      }
    }
  }

  // Ghost-zone writes must fit the written field's allocated halo.
  for (const Write& w : writes) {
    const grid::Function* fn = grid::lookup_field(w.field);
    if (fn == nullptr) {
      why = "written field is not registered";
      return false;
    }
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (plan.ext[0][w.cluster][ud] > fn->halo()) {
        why = "sub-step 0 writes " +
              std::to_string(plan.ext[0][w.cluster][ud]) +
              " ghost points of '" + fn->name() + "' but its halo is " +
              std::to_string(fn->halo());
        return false;
      }
    }
  }

  // Classify every read: strip-top exchange, hoisted parameter exchange,
  // or in-strip redundant-write coverage.
  std::map<std::pair<int, int>, HaloNeed> strip;  // (field, abs index) -> need
  auto merge_need = [&](std::map<std::pair<int, int>, HaloNeed>& into,
                        const sym::FieldId& f, int a,
                        const std::vector<int>& depth) -> bool {
    if (std::all_of(depth.begin(), depth.end(),
                    [](int v) { return v == 0; })) {
      return true;
    }
    const int cap = field_halo(f);
    for (int v : depth) {
      if (v > cap) {
        why = "'" + f.name + "' needs exchange depth " + std::to_string(v) +
              " but its allocated halo is " + std::to_string(cap) +
              " (construct fields under a deeper default_exchange_depth)";
        return false;
      }
    }
    auto [it, fresh] = into.try_emplace({f.id, a}, HaloNeed{f.id, a, depth});
    if (!fresh) {
      for (std::size_t d = 0; d < depth.size(); ++d) {
        it->second.widths[d] = std::max(it->second.widths[d], depth[d]);
      }
    }
    return true;
  };

  std::map<std::pair<int, int>, HaloNeed> param_map;
  for (std::size_t ci = 0; ci < nc; ++ci) {
    for (const Read& r : reads[ci]) {
      if (!r.field.time_varying) {
        // Parameter field: one exchange at the maximum extension (sub-step
        // 0) keeps it valid for the whole strip — and, once hoisted, for
        // the whole run.
        std::vector<int> depth(und, 0);
        for (int d = 0; d < nd; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          depth[ud] = r.w[ud] + plan.ext[0][ci][ud];
        }
        if (!merge_need(param_map, r.field, 0, depth)) {
          return false;
        }
        continue;
      }
      for (int j = 0; j < k; ++j) {
        const int a = j + r.off;  // Absolute buffer index vs the strip top.
        std::vector<int> depth(und, 0);
        for (int d = 0; d < nd; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          depth[ud] =
              r.w[ud] + plan.ext[static_cast<std::size_t>(j)][ci][ud];
        }
        if (a <= 0) {
          // Produced before the strip: refresh at the strip top.
          if (!merge_need(strip, r.field, a, depth)) {
            return false;
          }
          continue;
        }
        // Produced inside the strip: some earlier write of the same
        // buffer must reach at least as deep into the ghost zone.
        bool covered = false;
        for (const Write& w : writes) {
          if (w.field != r.field.id) {
            continue;
          }
          const int jw = a - w.off;
          if (jw < 0 || jw >= k || jw > j ||
              (jw == j && w.cluster > ci)) {
            continue;
          }
          bool dominates = true;
          for (int d = 0; d < nd; ++d) {
            const auto ud = static_cast<std::size_t>(d);
            if (plan.ext[static_cast<std::size_t>(jw)][w.cluster][ud] <
                depth[ud]) {
              dominates = false;
              break;
            }
          }
          if (dominates) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          why = "sub-step " + std::to_string(j) + " reads '" + r.field.name +
                "' at time offset " + std::to_string(r.off) +
                " with no in-strip write deep enough to cover it";
          return false;
        }
      }
    }
  }

  for (auto& [key, need] : strip) {
    plan.strip_needs.push_back(std::move(need));
  }
  for (auto& [key, need] : param_map) {
    if (halo_opt) {
      plan.hoisted.push_back(std::move(need));
    } else {
      plan.strip_needs.push_back(std::move(need));
    }
  }
  plan.k = k;
  return true;
}

/// Effective per-dimension tile sizes: the user's request clamped to what
/// this grid can honour, with every clamp recorded in
/// LoweringInfo::tile_clamp_reason. Clamping is rank-uniform (it uses the
/// global shape and topology, never the executing rank's own extent) so
/// all ranks lower the same schedule — divergent schedules would deadlock
/// the autotuner's collective trial grid.
std::vector<std::int64_t> plan_tiling(const CompileOptions& opts,
                                      const grid::Grid& grid,
                                      LoweringInfo& info) {
  const int nd = grid.ndims();
  const auto und = static_cast<std::size_t>(nd);
  std::vector<std::int64_t> tile(und, 0);
  std::string reason;
  auto note = [&](std::string r) {
    if (!reason.empty()) {
      reason += "; ";
    }
    reason += std::move(r);
  };
  for (std::size_t d = 0; d < opts.tile.size(); ++d) {
    if (d >= und) {
      note("tile entries beyond the grid dimensionality are ignored");
      break;
    }
    if (opts.tile[d] < 0) {
      note("negative tile on dimension " + std::to_string(d) + " ignored");
      continue;
    }
    tile[d] = opts.tile[d];
  }
  if (nd > 0 && tile[und - 1] > 0) {
    note("innermost dimension stays contiguous for SIMD (tile " +
         std::to_string(tile[und - 1]) + " dropped)");
    tile[und - 1] = 0;
  }
  for (int d = 0; d + 1 < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (tile[ud] == 0) {
      continue;
    }
    const std::int64_t min_ext = grid.min_local_size(d);
    if (tile[ud] >= min_ext) {
      note("tile " + std::to_string(tile[ud]) +
           " covers the smallest rank-local extent " +
           std::to_string(min_ext) + " of dimension " + std::to_string(d) +
           " (untiled)");
      tile[ud] = 0;
    }
  }
  info.tile = tile;
  info.tile_clamp_reason = reason;
  return tile;
}

/// Build the loop nest of one cluster over the given per-dimension
/// bounds. A nonzero tile[d] wraps the nest in a BlockLoop over dimension
/// d (tile loops sit outermost, in dimension order) and the OpenMP
/// annotation moves to the outermost loop node.
NodePtr build_nest(const Cluster& c, int ndims, const CompileOptions& opts,
                   const std::vector<Bound>& lo, const std::vector<Bound>& hi,
                   const std::vector<std::int64_t>& tile) {
  int outer_tiled = -1;
  for (int d = 0; d < ndims; ++d) {
    if (tile[static_cast<std::size_t>(d)] > 0) {
      outer_tiled = d;
      break;
    }
  }
  std::vector<NodePtr> body;
  for (const sym::Temp& t : c.point_temps) {
    body.push_back(make_expression(sym::symbol(t.name), t.value));
  }
  for (const Eq& eq : c.eqs) {
    body.push_back(make_expression(eq.lhs, eq.rhs));
  }
  for (int d = ndims - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    LoopProps props;
    props.vector = d == ndims - 1;
    props.parallel = opts.openmp && d == 0 && outer_tiled < 0;
    body = {make_iteration(d, lo[ud], hi[ud], props, std::move(body))};
  }
  for (int d = ndims - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    if (tile[ud] <= 0) {
      continue;
    }
    LoopProps props;
    props.parallel = opts.openmp && d == outer_tiled;
    body = {make_block_loop(d, lo[ud], hi[ud], tile[ud], props,
                            std::move(body))};
  }
  return body.front();
}

std::vector<Bound> domain_lo(int nd) {
  return std::vector<Bound>(static_cast<std::size_t>(nd), Bound::absolute(0));
}
std::vector<Bound> domain_hi(int nd) {
  return std::vector<Bound>(static_cast<std::size_t>(nd), Bound::from_size(0));
}

/// Full-mode split of a cluster into CORE plus 2 slabs per decomposed
/// dimension (disjoint cover of (DOMAIN + ghost extension) \ CORE; see
/// DESIGN.md). `w` is the CORE inset (the cluster's read width — CORE
/// must not touch in-flight receives); `ext` is the communication-
/// avoiding ghost extension carried by the remainder slabs (all zeros at
/// exchange depth 1).
void build_full_split(const Cluster& c, int nd, const CompileOptions& opts,
                      const std::vector<int>& w, const std::vector<int>& ext,
                      const std::vector<std::int64_t>& tile,
                      std::vector<NodePtr>& out) {
  // CORE nest.
  std::vector<Bound> lo(static_cast<std::size_t>(nd));
  std::vector<Bound> hi(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    lo[ud] = Bound::absolute(w[ud]);
    hi[ud] = Bound::from_size(-w[ud]);
  }
  out.push_back(make_section("core", {build_nest(c, nd, opts, lo, hi, tile)}));

  // Remainder slabs, ordered low/high per dimension. Dimensions before the
  // slab dimension are restricted to their core range; later dimensions
  // span the whole (ghost-extended) domain.
  std::vector<NodePtr> remainders;
  for (int d = 0; d < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (w[ud] == 0 && ext[ud] == 0) {
      continue;
    }
    for (const bool high : {false, true}) {
      std::vector<Bound> slo(static_cast<std::size_t>(nd));
      std::vector<Bound> shi(static_cast<std::size_t>(nd));
      for (int q = 0; q < nd; ++q) {
        const auto uq = static_cast<std::size_t>(q);
        if (q < d) {
          slo[uq] = Bound::absolute(w[uq]);
          shi[uq] = Bound::from_size(-w[uq]);
        } else if (q > d) {
          slo[uq] = Bound{false, 0, ext[uq]};
          shi[uq] = Bound{true, 0, ext[uq]};
        } else if (high) {
          slo[uq] = Bound::from_size(-w[uq]);
          shi[uq] = Bound{true, 0, ext[uq]};
        } else {
          slo[uq] = Bound{false, 0, ext[uq]};
          shi[uq] = Bound::absolute(w[uq]);
        }
      }
      remainders.push_back(build_nest(c, nd, opts, slo, shi, tile));
    }
  }
  out.push_back(make_section("remainder", std::move(remainders)));
}

/// CORE inset of a cluster at exchange depth 1: the merged widths of its
/// pre-lowering halo needs.
std::vector<int> needs_width(const Cluster& c, int nd) {
  std::vector<int> w(static_cast<std::size_t>(nd), 0);
  for (const HaloNeed& n : c.needs) {
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      w[ud] = std::max(w[ud], n.widths[ud]);
    }
  }
  return w;
}

bool is_reserved_temp_name(const std::string& name) {
  if (name.size() < 2 || name[0] != 'r') {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

void collect_arg_orders(const std::vector<Eq>& eqs, LoweringInfo& info) {
  std::set<int> fields;
  std::set<std::string> field_names;
  std::set<std::string> scalars;
  for (const Eq& eq : eqs) {
    for (const sym::Ex& e : {eq.lhs, eq.rhs}) {
      sym::walk(e, [&](const sym::Ex& sub) {
        if (sub.kind() == sym::Kind::FieldAccess) {
          // Distinct fields sharing one name would collide in the
          // generated C declarations.
          if (fields.insert(sub.node().field.id).second &&
              !field_names.insert(sub.node().field.name).second) {
            throw std::invalid_argument(
                "lowering: two distinct fields are both named '" +
                sub.node().field.name + "'");
          }
        } else if (sub.kind() == sym::Kind::Symbol) {
          // rN is the compiler's temp namespace (Listing 11's r0, r1...).
          if (is_reserved_temp_name(sub.node().name)) {
            throw std::invalid_argument("lowering: symbol name '" +
                                        sub.node().name +
                                        "' is reserved for compiler temps");
          }
          // jitfd_* is the runtime's namespace (jitfd_health_every, the
          // generated kernel's own identifiers).
          if (sub.node().name.rfind("jitfd_", 0) == 0) {
            throw std::invalid_argument("lowering: symbol name '" +
                                        sub.node().name +
                                        "' is reserved (jitfd_ prefix)");
          }
          scalars.insert(sub.node().name);
        }
      });
    }
  }
  info.field_order.assign(fields.begin(), fields.end());
  info.scalar_order.assign(scalars.begin(), scalars.end());
}

}  // namespace

NodePtr lower_to_iet(const std::vector<Eq>& eqs, const grid::Grid& grid,
                     const CompileOptions& opts,
                     const std::vector<SparseOpDesc>& sparse_ops,
                     LoweringInfo& info) {
  if (eqs.empty()) {
    throw std::invalid_argument("lower_to_iet: no equations");
  }
  const int nd = grid.ndims();
  {
    const obs::Span span("compile.collect_args", obs::Cat::Compile,
                         static_cast<std::int64_t>(eqs.size()));
    collect_arg_orders(eqs, info);
  }

  // Stages 1-3.
  obs::Span cluster_span("compile.cluster", obs::Cat::Compile,
                         static_cast<std::int64_t>(eqs.size()));
  std::vector<Cluster> clusters = build_clusters(eqs);
  cluster_span.close();
  if (opts.flop_reduce) {
    const obs::Span span("compile.flop_reduce", obs::Cat::Compile,
                         static_cast<std::int64_t>(clusters.size()));
    flop_reduce(clusters, info);
  }
  obs::Span halo_span("compile.halo_analyze", obs::Cat::Compile);
  // Communication-avoiding stepping: try the requested exchange depth,
  // clamping toward 1 whenever a depth is infeasible for these equations
  // on this grid. At the clamped depth 1 the classic per-step analysis
  // runs unchanged.
  DeepHaloPlan ca;
  const int k_req = std::max(1, opts.exchange_depth);
  if (k_req > 1) {
    if (!grid.distributed() || opts.mode == MpiMode::None) {
      info.exchange_depth_clamp_reason = "serial grid or MPI mode 'none'";
    } else if (!sparse_ops.empty()) {
      info.exchange_depth_clamp_reason =
          "sparse operations update owned points only (ghost zones would "
          "miss injections)";
    } else {
      std::string why;
      for (int k = k_req; k >= 2; --k) {
        ca = DeepHaloPlan{};
        if (plan_deep_halo(clusters, grid, opts.halo_opt, k, ca, why)) {
          break;
        }
        ca = DeepHaloPlan{};
      }
      if (ca.k < k_req) {
        // Fully clamped (k == 1) or downgraded to a shallower depth:
        // `why` is the failure of the shallowest depth that was rejected.
        info.exchange_depth_clamp_reason = why;
      }
    }
  }
  info.exchange_depth = ca.k;
  std::vector<HaloNeed> hoisted =
      ca.k > 1 ? ca.hoisted : analyze_halos(clusters, grid, opts.halo_opt);
  halo_span.close();

  // Per-dimension cache tiling.
  const std::vector<std::int64_t> tile = plan_tiling(opts, grid, info);

  // Stage 4: schedule (pre-lowering IET, with HaloSpot placeholders).
  obs::Span schedule_span("compile.schedule", obs::Cat::Compile);
  std::vector<NodePtr> prologue;
  for (const sym::Temp& t : info.invariants) {
    prologue.push_back(make_expression(sym::symbol(t.name), t.value));
  }
  if (!hoisted.empty()) {
    prologue.push_back(make_halo_spot(hoisted));
  }

  // Numerical-health reductions: one (field, time offset) per distinct
  // write target, checked over the owned interior at the end of every
  // (sub-)step. The emitted kernels are guarded by the reserved
  // jitfd_health_every scalar, so a zero interval costs one comparison.
  std::vector<HaloNeed> health;
  if (opts.health) {
    std::set<std::pair<int, int>> seen_writes;
    for (const Cluster& c : clusters) {
      for (const Eq& eq : c.eqs) {
        if (seen_writes.emplace(eq.write_field().id, eq.write_time_offset())
                .second) {
          health.push_back(
              HaloNeed{eq.write_field().id, eq.write_time_offset(),
                       std::vector<int>(static_cast<std::size_t>(nd), 0)});
        }
      }
    }
  }

  std::vector<NodePtr> step;
  if (ca.k > 1) {
    // One exchange at the strip top, then k sub-steps whose loop bounds
    // shrink from the widest ghost extension back to the owned region.
    if (!ca.strip_needs.empty()) {
      step.push_back(make_halo_spot(ca.strip_needs));
    }
    for (int j = 0; j < ca.k; ++j) {
      std::vector<NodePtr> sub;
      for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
        std::vector<Bound> lo = domain_lo(nd);
        std::vector<Bound> hi = domain_hi(nd);
        for (int d = 0; d < nd; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          const int e = ca.ext[static_cast<std::size_t>(j)][ci][ud];
          lo[ud].ghost = e;
          hi[ud].ghost = e;
        }
        sub.push_back(build_nest(clusters[ci], nd, opts, lo, hi, tile));
      }
      if (!health.empty()) {
        // Inside the substep: the substep's partial-strip guard also
        // guards the check, keeping the `time % interval` predicate (and
        // thus the cross-rank reduction schedule) identical on all ranks.
        sub.push_back(make_health_check(health));
      }
      step.push_back(make_substep(j, std::move(sub)));
    }
  } else {
    for (const Cluster& c : clusters) {
      if (!c.needs.empty()) {
        step.push_back(make_halo_spot(c.needs));
      }
      step.push_back(
          build_nest(c, nd, opts, domain_lo(nd), domain_hi(nd), tile));
    }
    for (const SparseOpDesc& s : sparse_ops) {
      step.push_back(make_sparse_op(s.id));
      ++info.sparse_op_count;
    }
    if (!health.empty()) {
      step.push_back(make_health_check(health));
    }
  }
  if (!health.empty()) {
    info.health_checks = health;
    info.scalar_order.push_back(kHealthIntervalScalar);
  }

  std::vector<NodePtr> top = prologue;
  top.push_back(make_time_loop(std::move(step), ca.k));
  NodePtr scheduled = make_callable("Kernel", std::move(top));
  info.schedule_dump = to_debug_string(scheduled);
  schedule_span.close();

  // Stage 5: pattern lowering. Rebuild the callable, replacing HaloSpots.
  const obs::Span lower_span("compile.pattern_lower", obs::Cat::Compile, 0,
                             static_cast<std::int32_t>(opts.mode));
  int next_spot = 0;
  auto register_spot = [&](const std::vector<HaloNeed>& needs, bool is_hoisted) {
    info.spots.push_back(SpotInfo{next_spot, needs, is_hoisted});
    return next_spot++;
  };

  std::vector<NodePtr> new_top;
  for (const NodePtr& n : scheduled->body) {
    if (n->type == NodeType::HaloSpot) {
      if (opts.mode == MpiMode::None) {
        continue;
      }
      const int id = register_spot(n->needs, /*is_hoisted=*/true);
      new_top.push_back(make_halo_comm(HaloCommKind::Update, n->needs, id));
      continue;
    }
    if (n->type != NodeType::TimeLoop) {
      new_top.push_back(n);
      continue;
    }
    // Rewrite the time-loop body.
    std::vector<NodePtr> new_step;
    const auto& old = n->body;
    if (n->time_stride > 1) {
      // Communication-avoiding strip: a single spot at the strip top
      // (Update for basic/diagonal, Start for full), then the sub-steps.
      // In full mode the Wait moves inside sub-step 0, between the CORE
      // and remainder halves of its first cluster.
      std::size_t i = 0;
      int spot = -1;
      std::vector<HaloNeed> strip_needs;
      if (i < old.size() && old[i]->type == NodeType::HaloSpot) {
        strip_needs = old[i]->needs;
        spot = register_spot(strip_needs, /*is_hoisted=*/false);
        new_step.push_back(make_halo_comm(opts.mode == MpiMode::Full
                                              ? HaloCommKind::Start
                                              : HaloCommKind::Update,
                                          strip_needs, spot));
        ++i;
      }
      for (; i < old.size(); ++i) {
        const NodePtr& sub = old[i];
        if (opts.mode == MpiMode::Full && spot >= 0 && sub->time_shift == 0) {
          std::vector<NodePtr> body;
          std::vector<NodePtr> split;
          build_full_split(clusters.front(), nd, opts, ca.width.front(),
                           ca.ext.front().front(), tile, split);
          body.push_back(split[0]);  // CORE section.
          body.push_back(make_halo_comm(HaloCommKind::Wait, strip_needs, spot));
          body.push_back(split[1]);  // Remainder section.
          for (std::size_t q = 1; q < sub->body.size(); ++q) {
            body.push_back(sub->body[q]);
          }
          new_step.push_back(with_body(*sub, std::move(body)));
          continue;
        }
        new_step.push_back(sub);
      }
      new_top.push_back(with_body(*n, std::move(new_step)));
      continue;
    }
    // Stage 4 emitted one nest per cluster, in cluster order, each
    // preceded by its spot (if any): a cursor pairs nests with clusters.
    std::size_t next_cluster = 0;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old[i]->type != NodeType::HaloSpot) {
        if (old[i]->type == NodeType::Iteration ||
            old[i]->type == NodeType::BlockLoop) {
          ++next_cluster;
        }
        new_step.push_back(old[i]);
        continue;
      }
      if (opts.mode == MpiMode::None) {
        continue;
      }
      const std::vector<HaloNeed>& needs = old[i]->needs;
      const int id = register_spot(needs, /*is_hoisted=*/false);
      if (opts.mode != MpiMode::Full) {
        new_step.push_back(make_halo_comm(HaloCommKind::Update, needs, id));
        continue;
      }
      // Full mode: start, CORE, wait, remainder — replacing the following
      // loop nest (the spot's own cluster) with its split.
      const Cluster& c = clusters[next_cluster++];
      new_step.push_back(make_halo_comm(HaloCommKind::Start, needs, id));
      std::vector<NodePtr> split;
      build_full_split(c, nd, opts, needs_width(c, nd),
                       std::vector<int>(static_cast<std::size_t>(nd), 0),
                       tile, split);
      new_step.push_back(split[0]);  // CORE section.
      new_step.push_back(make_halo_comm(HaloCommKind::Wait, needs, id));
      new_step.push_back(split[1]);  // Remainder section.
      ++i;                           // Skip the consumed nest.
    }
    new_top.push_back(make_time_loop(std::move(new_step)));
  }
  return make_callable(scheduled->name, std::move(new_top));
}

}  // namespace jitfd::ir
