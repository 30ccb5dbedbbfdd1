#include "app/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ckpt/io.hpp"

namespace sv::app {

namespace {

// Collective tag-space kinds (bits 24..27 of the tag). Reduce and
// allreduce use distinct kinds for their shared reduce-scatter phase so a
// straggling rank's frames can never match the other collective's.
constexpr std::uint32_t kBarrierKind = 1;
constexpr std::uint32_t kBcastKind = 2;
constexpr std::uint32_t kReduceRsKind = 3;
constexpr std::uint32_t kAllreduceRsKind = 4;
constexpr std::uint32_t kAllgatherKind = 5;
constexpr std::uint32_t kReduceGatherKind = 6;

void combine(ReduceOp op, std::span<double> into,
             std::span<const double> from) {
  assert(into.size() == from.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < into.size(); ++i) {
        into[i] += from[i];
      }
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < into.size(); ++i) {
        into[i] = std::min(into[i], from[i]);
      }
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < into.size(); ++i) {
        into[i] = std::max(into[i], from[i]);
      }
      break;
  }
}

/// Chunk c of n for the ring algorithms (balanced, order-preserving).
std::span<double> chunk_of(std::span<double> v, std::size_t c,
                           std::size_t n) {
  const std::size_t b = v.size() * c / n;
  const std::size_t e = v.size() * (c + 1) / n;
  return v.subspan(b, e - b);
}

std::vector<std::byte> to_bytes(std::span<const double> v) {
  std::vector<std::byte> out(v.size() * sizeof(double));
  if (!v.empty()) {
    std::memcpy(out.data(), v.data(), out.size());
  }
  return out;
}

void from_bytes(std::span<const std::byte> in, std::span<double> out) {
  if (in.size() != out.size() * sizeof(double)) {
    throw std::runtime_error("app: collective payload size mismatch");
  }
  if (!out.empty()) {
    std::memcpy(out.data(), in.data(), in.size());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Comm.
// ---------------------------------------------------------------------------

std::uint16_t Comm::size() const {
  return static_cast<std::uint16_t>(world_->nranks());
}

cpu::Processor& Comm::ap() {
  return world_->machine().node(world_->node_of(rank_)).ap();
}

sim::Kernel& Comm::kernel() {
  return world_->machine().domain(world_->node_of(rank_));
}

Transport& Comm::transport() {
  return world_->transport(world_->node_of(rank_));
}

sim::WaitGroup& Comm::wg() { return world_->ranks_.at(rank_).wg; }

std::uint32_t Comm::coll_tag(std::uint32_t kind, std::uint16_t gen,
                             std::uint32_t round) {
  return 0x8000'0000u | (kind << 24) | (static_cast<std::uint32_t>(gen) << 8) |
         (round & 0xFFu);
}

sim::Co<void> Comm::compute(std::uint64_t cycles) {
  co_await ap().work(cycles);
}

sim::Co<void> Comm::send_impl(std::uint16_t dst, std::uint32_t tag,
                              std::span<const std::byte> data) {
  co_await transport().send(rank_, dst, tag, data,
                            world_->node_of(dst) == world_->node_of(rank_));
}

sim::Co<Inbound> Comm::recv_impl(std::uint16_t src, std::uint32_t tag) {
  co_return co_await transport().recv(rank_, src, tag);
}

sim::Co<void> Comm::send(std::uint16_t dst, std::uint32_t tag,
                         std::span<const std::byte> data) {
  co_await compute(world_->params().compute.cost(data.size()));
  co_await send_impl(dst, tag, data);
}

sim::Co<Inbound> Comm::recv(std::uint16_t src, std::uint32_t tag) {
  Inbound m = co_await recv_impl(src, tag);
  co_await compute(world_->params().compute.cost(m.data.size()));
  co_return m;
}

sim::Co<void> Comm::isend_task(std::uint16_t dst, std::uint32_t tag,
                               std::vector<std::byte> data,
                               std::shared_ptr<Request::State> st) {
  co_await compute(world_->params().compute.cost(data.size()));
  co_await send_impl(dst, tag, data);
  st->completed.fire();
  wg().done();
}

sim::Co<void> Comm::irecv_task(std::uint16_t src, std::uint32_t tag,
                               std::shared_ptr<Request::State> st) {
  st->msg = co_await recv_impl(src, tag);
  co_await compute(world_->params().compute.cost(st->msg.data.size()));
  st->completed.fire();
  wg().done();
}

Request Comm::isend(std::uint16_t dst, std::uint32_t tag,
                    std::vector<std::byte> data) {
  Request r;
  r.st_ = std::make_shared<Request::State>(kernel());
  wg().add();
  ap().run(isend_task(dst, tag, std::move(data), r.st_));
  return r;
}

Request Comm::irecv(std::uint16_t src, std::uint32_t tag) {
  Request r;
  r.st_ = std::make_shared<Request::State>(kernel());
  wg().add();
  ap().run(irecv_task(src, tag, r.st_));
  return r;
}

sim::Co<Inbound> Comm::wait(Request r) {
  if (!r.valid()) {
    throw std::logic_error("app::Comm::wait: empty request");
  }
  co_await r.st_->completed;
  co_return std::move(r.st_->msg);
}

sim::Co<void> Comm::barrier() {
  const std::uint16_t gen = gen_barrier_++;
  const std::uint32_t n = size();
  std::uint32_t round = 0;
  // Dissemination barrier: log2(n) rounds of (send to rank+2^k, recv from
  // rank-2^k), no root bottleneck.
  for (std::uint32_t dist = 1; dist < n; dist <<= 1, ++round) {
    const auto dst = static_cast<std::uint16_t>((rank_ + dist) % n);
    const auto src = static_cast<std::uint16_t>((rank_ + n - dist) % n);
    const std::uint32_t tag = coll_tag(kBarrierKind, gen, round);
    Request rq = isend(dst, tag, {});
    (void)co_await recv(src, tag);
    (void)co_await wait(rq);
  }
}

sim::Co<void> Comm::bcast(std::uint16_t root, std::span<std::byte> data) {
  const std::uint16_t gen = gen_bcast_++;
  const std::uint32_t n = size();
  if (n <= 1) {
    co_return;
  }
  // Binomial tree on the rank space rotated so `root` is virtual rank 0.
  // A rank receives once at its lowest set virtual-rank bit, then relays
  // down every lower bit; the tag's round field is that bit index, which
  // both sides compute identically.
  const std::uint32_t vr = (rank_ + n - root) % n;
  std::uint32_t mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      const auto src = static_cast<std::uint16_t>((vr - mask + root) % n);
      Inbound m = co_await recv(
          src, coll_tag(kBcastKind, gen, std::countr_zero(mask)));
      if (m.data.size() != data.size()) {
        throw std::runtime_error("app::bcast: size mismatch");
      }
      if (!data.empty()) {
        std::memcpy(data.data(), m.data.data(), data.size());
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const auto dst = static_cast<std::uint16_t>((vr + mask + root) % n);
      co_await send(dst, coll_tag(kBcastKind, gen, std::countr_zero(mask)),
                    data);
    }
    mask >>= 1;
  }
}

sim::Co<void> Comm::ring_reduce_scatter(std::span<double> data, ReduceOp op,
                                        std::uint32_t kind,
                                        std::uint16_t gen) {
  const std::uint32_t n = size();
  const auto right = static_cast<std::uint16_t>((rank_ + 1) % n);
  const auto left = static_cast<std::uint16_t>((rank_ + n - 1) % n);
  std::vector<double> incoming;
  for (std::uint32_t step = 0; step < n - 1; ++step) {
    const std::size_t sc = (rank_ + n - step) % n;
    const std::size_t rc = (rank_ + n - step - 1) % n;
    const std::uint32_t tag = coll_tag(kind, gen, step);
    Request rq = isend(right, tag, to_bytes(chunk_of(data, sc, n)));
    Inbound m = co_await recv(left, tag);
    auto rchunk = chunk_of(data, rc, n);
    incoming.resize(rchunk.size());
    from_bytes(m.data, incoming);
    combine(op, rchunk, incoming);
    (void)co_await wait(rq);
  }
}

sim::Co<void> Comm::allreduce(std::span<double> data, ReduceOp op) {
  const std::uint16_t gen = gen_allreduce_++;
  const std::uint32_t n = size();
  if (n <= 1) {
    co_return;
  }
  co_await ring_reduce_scatter(data, op, kAllreduceRsKind, gen);
  // Allgather: circulate the fully reduced chunks around the ring.
  const auto right = static_cast<std::uint16_t>((rank_ + 1) % n);
  const auto left = static_cast<std::uint16_t>((rank_ + n - 1) % n);
  for (std::uint32_t step = 0; step < n - 1; ++step) {
    const std::size_t sc = (rank_ + 1 + n - step) % n;
    const std::size_t rc = (rank_ + n - step) % n;
    const std::uint32_t tag = coll_tag(kAllgatherKind, gen, step);
    Request rq = isend(right, tag, to_bytes(chunk_of(data, sc, n)));
    Inbound m = co_await recv(left, tag);
    from_bytes(m.data, chunk_of(data, rc, n));
    (void)co_await wait(rq);
  }
}

sim::Co<void> Comm::reduce(std::uint16_t root, std::span<double> data,
                           ReduceOp op) {
  const std::uint16_t gen = gen_reduce_++;
  const std::uint32_t n = size();
  if (n <= 1) {
    co_return;
  }
  co_await ring_reduce_scatter(data, op, kReduceRsKind, gen);
  // Gather: every rank owns one reduced chunk; forward them to root.
  if (rank_ != root) {
    const std::size_t oc = (rank_ + 1) % n;
    co_await send(root,
                  coll_tag(kReduceGatherKind, gen,
                           static_cast<std::uint32_t>(oc)),
                  to_bytes(chunk_of(data, oc, n)));
  } else {
    for (std::uint16_t peer = 0; peer < n; ++peer) {
      if (peer == root) {
        continue;
      }
      const std::size_t c = (peer + 1) % n;
      Inbound m = co_await recv(
          peer, coll_tag(kReduceGatherKind, gen,
                         static_cast<std::uint32_t>(c)));
      from_bytes(m.data, chunk_of(data, c, n));
    }
  }
}

// ---------------------------------------------------------------------------
// World.
// ---------------------------------------------------------------------------

World::World(sys::Machine& machine, Params params)
    : machine_(machine), params_(params) {
  if (params_.nranks == 0) {
    params_.nranks = machine_.size();
  }
  const auto map = machine_.addr_map();
  for (sim::NodeId n = 0; n < static_cast<sim::NodeId>(machine_.size());
       ++n) {
    auto& node = machine_.node(n);
    auto& k = machine_.domain(n);
    switch (params_.transport) {
      case TransportKind::kMsg:
        transports_.push_back(
            std::make_unique<MsgTransport>(node, k, map, params_.nranks));
        break;
      case TransportKind::kReliable:
        transports_.push_back(std::make_unique<ReliableTransport>(
            node, k, map, params_.nranks, params_.reliable));
        break;
      case TransportKind::kShm:
        transports_.push_back(std::make_unique<ShmTransport>(
            node, k, params_.nranks, machine_.size(), params_.shm_region,
            params_.shm_poll));
        break;
    }
  }
}

void World::launch(const Program& program) {
  assert(!launched_ && "World::launch called twice");
  launched_ = true;
  for (auto& t : transports_) {
    t->start();
  }
  for (std::uint16_t r = 0; r < params_.nranks; ++r) {
    ranks_.emplace_back(this, r, machine_.domain(node_of(r)));
  }
  for (std::uint16_t r = 0; r < params_.nranks; ++r) {
    machine_.node(node_of(r)).ap().run(run_rank(ranks_[r], program));
  }
}

sim::Co<void> World::run_rank(RankState& rs, Program program) {
  co_await program(rs.comm);
  // Join stragglers: a rank is not done until every nonblocking request
  // it issued has completed.
  co_await rs.wg.wait();
  rs.finished = 1;
  rs.finished_at = rs.comm.kernel().now();
}

bool World::done() const {
  if (!launched_) {
    return false;
  }
  for (const auto& rs : ranks_) {
    if (rs.finished == 0) {
      return false;
    }
  }
  return true;
}

sim::Tick World::finished_at() const {
  sim::Tick last = 0;
  for (const auto& rs : ranks_) {
    last = std::max(last, rs.finished_at);
  }
  return last;
}

void World::add_stats(sim::StatRegistry& reg) const {
  std::uint64_t msgs = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t local = 0;
  for (std::size_t n = 0; n < transports_.size(); ++n) {
    const auto& s = transports_[n]->stats();
    const std::string p = "app.n" + std::to_string(n) + ".";
    reg.set(p + "msgs_sent", static_cast<double>(s.msgs_sent.value()));
    reg.set(p + "frames_sent", static_cast<double>(s.frames_sent.value()));
    reg.set(p + "bytes_sent", static_cast<double>(s.bytes_sent.value()));
    reg.set(p + "msgs_delivered",
            static_cast<double>(s.msgs_delivered.value()));
    reg.set(p + "local_delivered",
            static_cast<double>(s.local_delivered.value()));
    msgs += s.msgs_sent.value();
    frames += s.frames_sent.value();
    bytes += s.bytes_sent.value();
    delivered += s.msgs_delivered.value();
    local += s.local_delivered.value();
  }
  reg.set("app.total.msgs_sent", static_cast<double>(msgs));
  reg.set("app.total.frames_sent", static_cast<double>(frames));
  reg.set("app.total.bytes_sent", static_cast<double>(bytes));
  reg.set("app.total.msgs_delivered", static_cast<double>(delivered));
  reg.set("app.total.local_delivered", static_cast<double>(local));
}

void World::ckpt_save(ckpt::Writer& w) const {
  w.u64(ranks_.size());
  for (const RankState& rs : ranks_) {
    w.u8(rs.finished);
    w.u16(rs.comm.gen_barrier_);
    w.u16(rs.comm.gen_bcast_);
    w.u16(rs.comm.gen_reduce_);
    w.u16(rs.comm.gen_allreduce_);
  }
  w.u64(transports_.size());
  for (const auto& t : transports_) {
    t->ckpt_save(w);
  }
}

}  // namespace sv::app
