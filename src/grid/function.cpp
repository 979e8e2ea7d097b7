#include "grid/function.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "core/env.h"
#include "symbolic/fd_ops.h"

namespace jitfd::grid {

namespace {

int next_field_id() {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1);
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<int, Function*>& registry() {
  static std::map<int, Function*> r;
  return r;
}

std::atomic<int>& exchange_depth_default() {
  static std::atomic<int> depth{[] {
    const int v = static_cast<int>(env::get_int("JITFD_EXCHANGE_DEPTH", 1));
    return v > 1 ? v : 1;
  }()};
  return depth;
}

// Reserved user-channel tag for Function::gather traffic, far above the
// halo-exchange tag space. A single fixed tag suffices: gathers are
// collective (all ranks call in the same program order) and the mailbox
// matches messages per (source, tag) in FIFO order. Field ids must NOT be
// used here — rank threads construct their own Function objects, so ids
// are not equal across ranks.
constexpr int kGatherTag = 1 << 24;

}  // namespace

Function::Function(std::string name, const Grid& grid, int space_order,
                   int padding)
    : Function(std::move(name), grid, space_order, padding,
               /*time_varying=*/false, /*buffers=*/1) {}

Function::Function(std::string name, const Grid& grid, int space_order,
                   int padding, bool time_varying, int buffers, bool saved)
    : grid_(&grid),
      space_order_(space_order),
      halo_(space_order * default_exchange_depth()),
      padding_(padding),
      buffers_(buffers),
      saved_(saved) {
  if (space_order < 2 || space_order % 2 != 0) {
    throw std::invalid_argument("Function: space_order must be even and >= 2");
  }
  if (padding < 0 || buffers < 1) {
    throw std::invalid_argument("Function: invalid padding or buffer count");
  }
  id_.id = next_field_id();
  id_.name = std::move(name);
  id_.ndims = grid.ndims();
  id_.time_varying = time_varying;

  const std::int64_t ghost = 2 * static_cast<std::int64_t>(lpad());
  buffer_points_ = 1;
  for (const std::int64_t s : grid.local_shape()) {
    padded_shape_.push_back(s + ghost);
    buffer_points_ *= padded_shape_.back();
  }
  strides_.assign(padded_shape_.size(), 1);
  for (int d = grid.ndims() - 2; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    strides_[ud] = strides_[ud + 1] * padded_shape_[ud + 1];
  }
  storage_.assign(static_cast<std::size_t>(buffer_points_) *
                      static_cast<std::size_t>(buffers_),
                  0.0F);
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().emplace(id_.id, this);
  }
}

Function::~Function() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().erase(id_.id);
}

int Function::buffer_index(int time_offset, std::int64_t time) const {
  if (!id_.time_varying) {
    return 0;
  }
  if (saved_) {
    const std::int64_t idx = time + time_offset;
    assert(idx >= 0 && idx < buffers_ &&
           "saved TimeFunction accessed outside its stored range");
    return static_cast<int>(idx);
  }
  const int nb = buffers_;
  return static_cast<int>((((time + time_offset) % nb) + nb) % nb);
}

void Function::set_default_exchange_depth(int depth) {
  if (depth < 1) {
    throw std::invalid_argument(
        "Function::set_default_exchange_depth: depth must be >= 1");
  }
  exchange_depth_default().store(depth);
}

int Function::default_exchange_depth() {
  return exchange_depth_default().load();
}

Function* lookup_field(int field_id) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(field_id);
  return it == registry().end() ? nullptr : it->second;
}

float* Function::buffer(int t) {
  assert(t >= 0 && t < buffers_);
  return storage_.data() + static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(buffer_points_);
}

const float* Function::buffer(int t) const {
  assert(t >= 0 && t < buffers_);
  return storage_.data() + static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(buffer_points_);
}

std::int64_t Function::raw_linear(int t,
                                  std::span<const std::int64_t> raw) const {
  assert(static_cast<int>(raw.size()) == grid_->ndims());
  std::int64_t idx = 0;
  for (std::size_t d = 0; d < raw.size(); ++d) {
    assert(raw[d] >= 0 && raw[d] < padded_shape_[d]);
    idx += raw[d] * strides_[d];
  }
  return static_cast<std::int64_t>(t) * buffer_points_ + idx;
}

float& Function::at_local(int t, std::span<const std::int64_t> idx) {
  std::vector<std::int64_t> raw(idx.begin(), idx.end());
  for (std::int64_t& r : raw) {
    r += lpad();
  }
  return storage_[static_cast<std::size_t>(raw_linear(t, raw))];
}

float Function::at_local(int t, std::span<const std::int64_t> idx) const {
  return const_cast<Function*>(this)->at_local(t, idx);
}

void Function::fill(float v) { std::fill(storage_.begin(), storage_.end(), v); }

namespace {

// Iterate an n-dimensional half-open box, invoking fn(idx) per point.
void for_each_point(
    std::span<const std::int64_t> lo, std::span<const std::int64_t> hi,
    const std::function<void(std::span<const std::int64_t>)>& fn) {
  const std::size_t nd = lo.size();
  for (std::size_t d = 0; d < nd; ++d) {
    if (lo[d] >= hi[d]) {
      return;
    }
  }
  std::vector<std::int64_t> idx(lo.begin(), lo.end());
  while (true) {
    fn(idx);
    std::size_t d = nd;
    while (d-- > 0) {
      if (++idx[d] < hi[d]) {
        break;
      }
      idx[d] = lo[d];
      if (d == 0) {
        return;
      }
    }
  }
}

}  // namespace

void Function::fill_global_box(int t, std::span<const std::int64_t> lo,
                               std::span<const std::int64_t> hi, float v) {
  assert(static_cast<int>(lo.size()) == grid_->ndims());
  // Convert the global box to this rank's owned local box, then write.
  std::vector<std::int64_t> llo(lo.size());
  std::vector<std::int64_t> lhi(hi.size());
  const std::vector<int> coords =
      grid_->distributed() ? grid_->cart()->my_coords()
                           : std::vector<int>(lo.size(), 0);
  for (std::size_t d = 0; d < lo.size(); ++d) {
    const auto [l, h] = grid_->decomposition(static_cast<int>(d))
                            .localize_slice(coords[d], lo[d], hi[d]);
    llo[d] = l;
    lhi[d] = h;
  }
  for_each_point(llo, lhi, [&](std::span<const std::int64_t> idx) {
    at_local(t, idx) = v;
  });
}

bool Function::set_global(int t, std::span<const std::int64_t> g, float v) {
  std::vector<std::int64_t> local(g.size());
  const std::vector<int> coords =
      grid_->distributed() ? grid_->cart()->my_coords()
                           : std::vector<int>(g.size(), 0);
  for (std::size_t d = 0; d < g.size(); ++d) {
    local[d] = grid_->decomposition(static_cast<int>(d))
                   .global_to_local(coords[d], g[d]);
    if (local[d] < 0) {
      return false;
    }
  }
  at_local(t, local) = v;
  return true;
}

float Function::get_global_or(int t, std::span<const std::int64_t> g,
                              float fallback) const {
  std::vector<std::int64_t> local(g.size());
  const std::vector<int> coords =
      grid_->distributed() ? grid_->cart()->my_coords()
                           : std::vector<int>(g.size(), 0);
  for (std::size_t d = 0; d < g.size(); ++d) {
    local[d] = grid_->decomposition(static_cast<int>(d))
                   .global_to_local(coords[d], g[d]);
    if (local[d] < 0) {
      return fallback;
    }
  }
  return at_local(t, local);
}

void Function::init(
    const std::function<float(std::span<const std::int64_t>)>& fn) {
  // Fill the data region plus ghosts; ghost coordinates are clamped to the
  // physical domain so boundary halos carry sensible parameter values.
  const int nd = grid_->ndims();
  std::vector<std::int64_t> lo(static_cast<std::size_t>(nd));
  std::vector<std::int64_t> hi(padded_shape_.begin(), padded_shape_.end());
  std::vector<std::int64_t> g(static_cast<std::size_t>(nd));
  for_each_point(lo, hi, [&](std::span<const std::int64_t> raw) {
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const std::int64_t global = grid_->local_start(d) + raw[ud] - lpad();
      g[ud] = std::clamp<std::int64_t>(global, 0, grid_->shape()[ud] - 1);
    }
    const float v = fn(g);
    for (int t = 0; t < buffers_; ++t) {
      storage_[static_cast<std::size_t>(raw_linear(t, raw))] = v;
    }
  });
}

std::vector<float> Function::gather(int t) const {
  const int nd = grid_->ndims();
  // Pack this rank's owned block contiguously.
  std::vector<std::int64_t> lo(static_cast<std::size_t>(nd), 0);
  const auto& mine = grid_->local_shape();
  std::vector<float> block;
  block.reserve(static_cast<std::size_t>(
      std::accumulate(mine.begin(), mine.end(), std::int64_t{1},
                      std::multiplies<>())));
  for_each_point(lo, mine, [&](std::span<const std::int64_t> idx) {
    block.push_back(at_local(t, idx));
  });

  if (!grid_->distributed()) {
    return block;
  }
  const smpi::CartComm& cart = *grid_->cart();
  const smpi::Communicator& comm = cart.comm();
  const int tag = kGatherTag;
  if (comm.rank() != 0) {
    comm.send(block.data(), block.size() * sizeof(float), 0, tag);
    return {};
  }

  std::vector<float> global(
      static_cast<std::size_t>(grid_->points()));
  // Global row-major strides.
  std::vector<std::int64_t> gstrides(static_cast<std::size_t>(nd), 1);
  for (int d = nd - 2; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    gstrides[ud] = gstrides[ud + 1] * grid_->shape()[ud + 1];
  }
  for (int src = 0; src < comm.size(); ++src) {
    const std::vector<int> coords = cart.coords(src);
    std::vector<std::int64_t> starts(static_cast<std::size_t>(nd));
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(nd));
    std::int64_t count = 1;
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      starts[ud] = grid_->decomposition(d).start_of(coords[ud]);
      sizes[ud] = grid_->decomposition(d).size_of(coords[ud]);
      count *= sizes[ud];
    }
    std::vector<float> incoming;
    const float* src_data = nullptr;
    if (src == 0) {
      src_data = block.data();
    } else {
      incoming.resize(static_cast<std::size_t>(count));
      comm.recv(incoming.data(), incoming.size() * sizeof(float), src, tag);
      src_data = incoming.data();
    }
    std::size_t cursor = 0;
    std::vector<std::int64_t> zero(static_cast<std::size_t>(nd), 0);
    for_each_point(zero, sizes, [&](std::span<const std::int64_t> idx) {
      std::int64_t g = 0;
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        g += (starts[ud] + idx[ud]) * gstrides[ud];
      }
      global[static_cast<std::size_t>(g)] = src_data[cursor++];
    });
  }
  return global;
}

double Function::norm2(int t) const {
  const int nd = grid_->ndims();
  std::vector<std::int64_t> lo(static_cast<std::size_t>(nd), 0);
  double sum = 0.0;
  for_each_point(lo, grid_->local_shape(),
                 [&](std::span<const std::int64_t> idx) {
                   const double v = at_local(t, idx);
                   sum += v * v;
                 });
  if (grid_->distributed()) {
    std::vector<double> acc{sum};
    grid_->cart()->comm().allreduce(std::span<double>(acc),
                                    smpi::ReduceOp::Sum);
    sum = acc[0];
  }
  return sum;
}

// --- Symbolic accessors -------------------------------------------------------

sym::Ex Function::at(std::vector<int> offsets) const {
  assert(static_cast<int>(offsets.size()) == grid_->ndims());
  return sym::access(id_, std::move(offsets));
}

sym::Ex Function::operator()() const {
  return at(std::vector<int>(static_cast<std::size_t>(grid_->ndims()), 0));
}

sym::Ex Function::at_time(int time_offset, std::vector<int> offsets) const {
  assert(id_.time_varying);
  assert(static_cast<int>(offsets.size()) == grid_->ndims());
  return sym::access(id_, time_offset, std::move(offsets));
}

sym::Ex Function::dx(int d) const {
  return sym::diff((*this)(), d, 1, space_order_);
}

sym::Ex Function::dx2(int d) const {
  return sym::diff((*this)(), d, 2, space_order_);
}

sym::Ex Function::laplace() const {
  sym::Ex sum;
  for (int d = 0; d < grid_->ndims(); ++d) {
    sum += dx2(d);
  }
  return sum;
}

sym::Ex Function::dx_stag(int d, int side) const {
  return sym::diff_stag((*this)(), d, space_order_, side);
}

// --- TimeFunction ---------------------------------------------------------------

TimeFunction::TimeFunction(std::string name, const Grid& grid, int space_order,
                           int time_order, int padding, int save)
    : Function(std::move(name), grid, space_order, padding,
               /*time_varying=*/true,
               /*buffers=*/save > 0 ? save : time_order + 1,
               /*saved=*/save > 0),
      time_order_(time_order),
      save_(save) {
  if (time_order < 1 || time_order > 2) {
    throw std::invalid_argument("TimeFunction: time_order must be 1 or 2");
  }
  if (save < 0 || (save > 0 && save < time_order + 1)) {
    throw std::invalid_argument(
        "TimeFunction: save must be 0 or >= time_order + 1");
  }
}

namespace {
std::vector<int> zero_offsets(const Grid& g) {
  return std::vector<int>(static_cast<std::size_t>(g.ndims()), 0);
}
}  // namespace

sym::Ex TimeFunction::forward() const {
  return at_shifted(1, zero_offsets(grid()));
}

sym::Ex TimeFunction::backward() const {
  return at_shifted(-1, zero_offsets(grid()));
}

sym::Ex TimeFunction::now() const { return at_shifted(0, zero_offsets(grid())); }

sym::Ex TimeFunction::dt() const {
  if (time_order_ == 1) {
    return (forward() - now()) / dt_symbol();
  }
  return (forward() - backward()) / (2 * dt_symbol());
}

sym::Ex TimeFunction::dt2() const {
  if (time_order_ < 2) {
    throw std::logic_error("dt2 requires time_order >= 2");
  }
  return (forward() - 2 * now() + backward()) /
         (dt_symbol() * dt_symbol());
}

sym::Ex dt_symbol() { return sym::symbol("dt"); }

}  // namespace jitfd::grid
