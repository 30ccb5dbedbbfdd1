#include "niu/block_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "niu/abiu.hpp"
#include "niu/ctrl.hpp"

namespace sv::niu {

namespace {

/// Data bytes carried per remote-write packet. 64 keeps destination writes
/// line-aligned (two 32-byte bursts) when the transfer base is aligned.
constexpr std::uint32_t kWireChunk = 64;
static_assert(kWireChunk <= kRemoteCmdMaxData);

void check_block_bounds(const Command& cmd, mem::Addr addr) {
  if (cmd.len == 0 || cmd.len > kBlockMaxBytes) {
    throw std::invalid_argument("block op: bad length");
  }
  if ((addr % kBlockMaxBytes) + cmd.len > kBlockMaxBytes) {
    throw std::invalid_argument("block op: crosses page boundary");
  }
  if (addr % mem::kLineBytes != 0 || cmd.len % mem::kLineBytes != 0) {
    throw std::invalid_argument("block op: not line-aligned");
  }
}

}  // namespace

BlockEngines::BlockEngines(Ctrl& ctrl)
    : ctrl_(ctrl),
      read_unit_(ctrl.kernel(), 1),
      tx_unit_(ctrl.kernel(), 1),
      drained_(ctrl.kernel()) {}

sim::Co<void> BlockEngines::read_chunk(const Command& cmd, mem::Addr addr,
                                       std::uint32_t sram_offset,
                                       std::uint32_t len) {
  // Stream DRAM lines into SRAM with the line read and the IBus write of
  // the previous line overlapped (the engine is pipelined in hardware).
  const sim::Tick chunk_start = ctrl_.now();
  unsigned pending = 0;
  sim::Signal done(ctrl_.kernel());
  for (std::uint32_t off = 0; off < len; off += mem::kLineBytes) {
    auto buf = std::make_shared<std::vector<std::byte>>(mem::kLineBytes);
    co_await ctrl_.abiu().master_read(addr + off, *buf);
    ++pending;
    sim::spawn([](BlockEngines* self, const Command* c,
                  std::shared_ptr<std::vector<std::byte>> data,
                  std::uint32_t dst, unsigned* cnt,
                  sim::Signal* sig) -> sim::Co<void> {
      co_await self->ctrl_.ibus_access(c->bank, mem::kLineBytes);
      self->ctrl_.sram(c->bank).write(dst, *data);
      --*cnt;
      sig->pulse();
    }(this, &cmd, std::move(buf), sram_offset + off, &pending, &done));
  }
  while (pending != 0) {
    co_await done;
  }
  if (trace::Tracer* tr = ctrl_.kernel().tracer()) {
    tr->span(ctrl_.trace_lane(read_track_, "NIU.BlkRd", "niu"),
             "read " + std::to_string(len) + "B", chunk_start, ctrl_.now());
  }
}

sim::Co<void> BlockEngines::tx_chunk(const Command& cmd,
                                     std::uint32_t sram_offset,
                                     mem::Addr dest_addr, std::uint32_t len,
                                     bool last) {
  const sim::Tick chunk_start = ctrl_.now();
  for (std::uint32_t off = 0; off < len; off += kWireChunk) {
    const std::uint32_t n = std::min(kWireChunk, len - off);
    Command wr;
    wr.op = CmdOp::kWriteApDram;
    wr.addr = dest_addr + off;
    wr.src_node = static_cast<std::uint16_t>(ctrl_.node());
    wr.set_cls = cmd.set_cls;
    wr.cls_bits = cmd.cls_bits;
    wr.chunk_notify = cmd.chunk_notify;
    wr.data.resize(n);
    co_await ctrl_.ibus_access(cmd.bank, n);
    ctrl_.sram(cmd.bank).read(sram_offset + off, wr.data);

    net::Packet pkt;
    pkt.src = ctrl_.node();
    pkt.dest = cmd.dest_node;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.priority = cmd.priority;
    pkt.payload = encode_remote(wr);
    co_await ctrl_.inject(std::move(pkt));
  }
  if (trace::Tracer* tr = ctrl_.kernel().tracer()) {
    tr->span(ctrl_.trace_lane(tx_track_, "NIU.BlkTx", "niu"),
             "tx " + std::to_string(len) + "B", chunk_start, ctrl_.now());
  }

  if (last && cmd.remote_notify) {
    Command note;
    note.op = CmdOp::kNotifyLocal;
    note.queue = cmd.remote_notify_queue;
    note.tag = cmd.remote_notify_tag;
    note.src_node = static_cast<std::uint16_t>(ctrl_.node());
    note.data.resize(4);
    std::memcpy(note.data.data(), &cmd.remote_notify_tag, 4);

    net::Packet pkt;
    pkt.src = ctrl_.node();
    pkt.dest = cmd.dest_node;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.priority = cmd.priority;
    pkt.payload = encode_remote(note);
    co_await ctrl_.inject(std::move(pkt));
  }
}

sim::Co<void> BlockEngines::block_read(Command cmd) {
  check_block_bounds(cmd, cmd.addr);
  co_await read_unit_.acquire();
  co_await read_chunk(cmd, cmd.addr, cmd.sram_offset, cmd.len);
  read_unit_.release();
}

sim::Co<void> BlockEngines::block_tx(Command cmd) {
  check_block_bounds(cmd, cmd.dest_addr);
  co_await tx_unit_.acquire();
  co_await tx_chunk(cmd, cmd.sram_offset, cmd.dest_addr, cmd.len,
                    /*last=*/true);
  tx_unit_.release();
}

sim::Co<void> BlockEngines::block_diff_tx(Command cmd) {
  check_block_bounds(cmd, cmd.addr);
  co_await tx_unit_.acquire();

  auto& cls = ctrl_.cls();
  std::vector<std::byte> line(mem::kLineBytes);
  std::vector<std::byte> old_line(mem::kLineBytes);
  bool sent_any = false;

  for (std::uint32_t off = 0; off < cmd.len; off += mem::kLineBytes) {
    const mem::Addr src = cmd.addr + off;
    bool modified;
    if (cmd.diff_mode == 0) {
      // cls-tracked mode: the aBIU write tracker marked dirty lines.
      modified = (cls.peek(src) & 0x8) != 0;
      if (!modified) {
        continue;
      }
      co_await ctrl_.abiu().master_read(src, line);
      co_await cls.write_state(src, cls.peek(src) & 0x7);
    } else {
      // Value-diff mode: compare against (and refresh) the old copy.
      co_await ctrl_.abiu().master_read(src, line);
      co_await ctrl_.ibus_access(cmd.bank, mem::kLineBytes);
      ctrl_.sram(cmd.bank).read(cmd.sram_offset + off, old_line);
      modified = line != old_line;
      if (!modified) {
        continue;
      }
      co_await ctrl_.ibus_access(cmd.bank, mem::kLineBytes);
      ctrl_.sram(cmd.bank).write(cmd.sram_offset + off, line);
    }

    Command wr;
    wr.op = CmdOp::kWriteApDram;
    wr.addr = cmd.dest_addr + off;
    wr.src_node = static_cast<std::uint16_t>(ctrl_.node());
    wr.data = line;

    net::Packet pkt;
    pkt.src = ctrl_.node();
    pkt.dest = cmd.dest_node;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.priority = cmd.priority;
    pkt.payload = encode_remote(wr);
    co_await ctrl_.inject(std::move(pkt));
    sent_any = true;
  }
  (void)sent_any;

  if (cmd.remote_notify) {
    Command note;
    note.op = CmdOp::kNotifyLocal;
    note.queue = cmd.remote_notify_queue;
    note.tag = cmd.remote_notify_tag;
    note.src_node = static_cast<std::uint16_t>(ctrl_.node());
    note.data.resize(4);
    std::memcpy(note.data.data(), &cmd.remote_notify_tag, 4);

    net::Packet pkt;
    pkt.src = ctrl_.node();
    pkt.dest = cmd.dest_node;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.priority = cmd.priority;
    pkt.payload = encode_remote(note);
    co_await ctrl_.inject(std::move(pkt));
  }
  tx_unit_.release();
}

sim::Co<void> BlockEngines::block_xfer(Command cmd) {
  check_block_bounds(cmd, cmd.addr);
  check_block_bounds(cmd, cmd.dest_addr);
  const std::uint32_t chunk = std::min(Ctrl::kBlockChunkBytes, cmd.len);

  struct Staged {
    std::uint32_t buf;
    std::uint32_t offset;
    std::uint32_t len;
    bool last;
  };
  sim::Channel<Staged> ready(ctrl_.kernel());
  sim::Channel<std::uint32_t> free_bufs(ctrl_.kernel());
  free_bufs.push(0);
  free_bufs.push(1);

  // Reader side: fill alternating staging buffers from aP DRAM.
  sim::spawn([](BlockEngines* self, Command c, std::uint32_t chunk_bytes,
                sim::Channel<Staged>* out,
                sim::Channel<std::uint32_t>* bufs) -> sim::Co<void> {
    co_await self->read_unit_.acquire();
    for (std::uint32_t off = 0; off < c.len; off += chunk_bytes) {
      const std::uint32_t n = std::min(chunk_bytes, c.len - off);
      const std::uint32_t b = co_await bufs->pop();
      co_await self->read_chunk(c, c.addr + off,
                                c.sram_offset + b * chunk_bytes, n);
      out->push(Staged{b, off, n, off + n >= c.len});
    }
    self->read_unit_.release();
  }(this, cmd, chunk, &ready, &free_bufs));

  // Transmit side (this coroutine): ship chunks as they become ready.
  co_await tx_unit_.acquire();
  for (;;) {
    const Staged s = co_await ready.pop();
    co_await tx_chunk(cmd, cmd.sram_offset + s.buf * chunk,
                      cmd.dest_addr + s.offset, s.len, s.last);
    free_bufs.push(s.buf);
    if (s.last) {
      break;
    }
  }
  tx_unit_.release();
}

}  // namespace sv::niu
