#include "niu/command.hpp"

#include <cstring>
#include <stdexcept>

namespace sv::niu {

namespace {

// Header layout (16 bytes):
//   [0]    op
//   [1]    flags: bit0 set_cls, bit1 remote-notify-marker (unused on wire)
//   [2]    cls_bits
//   [3]    reserved
//   [4:5]  queue (kNotifyLocal) / src_node
//   [6:7]  tag low 16 (kSupplyLoad/kNotifyLocal use tag)
//   [8:15] addr
void put_u16(std::byte* p, std::uint16_t v) {
  p[0] = static_cast<std::byte>(v & 0xFF);
  p[1] = static_cast<std::byte>((v >> 8) & 0xFF);
}

std::uint16_t get_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned>(p[0]) |
                                    (static_cast<unsigned>(p[1]) << 8));
}

void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

bool op_encodable(CmdOp op) {
  switch (op) {
    case CmdOp::kWriteApDram:
    case CmdOp::kWriteClsState:
    case CmdOp::kNotifyLocal:
    case CmdOp::kSupplyLoad:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<std::byte> encode_remote(const Command& cmd) {
  if (!op_encodable(cmd.op)) {
    throw std::invalid_argument("encode_remote: op cannot travel");
  }
  if (cmd.data.size() > kRemoteCmdMaxData) {
    throw std::invalid_argument("encode_remote: payload too large");
  }
  std::vector<std::byte> wire(kRemoteCmdHeaderBytes + cmd.data.size());
  wire[0] = static_cast<std::byte>(cmd.op);
  wire[1] = static_cast<std::byte>((cmd.set_cls ? 1u : 0u) |
                                   (cmd.chunk_notify ? 4u : 0u));
  wire[2] = static_cast<std::byte>(cmd.cls_bits);
  wire[3] = std::byte{0};
  put_u16(wire.data() + 4, cmd.op == CmdOp::kNotifyLocal
                               ? cmd.queue
                               : cmd.src_node);
  put_u16(wire.data() + 6, static_cast<std::uint16_t>(cmd.tag & 0xFFFF));
  // The clsSRAM-range length rides in the high bits of the addr word for
  // kWriteClsState (addresses are < 2^40 in this machine).
  std::uint64_t addr_word = cmd.addr;
  if (cmd.op == CmdOp::kWriteClsState) {
    addr_word |= static_cast<std::uint64_t>(cmd.len) << 40;
  }
  put_u64(wire.data() + 8, addr_word);
  if (!cmd.data.empty()) {
    std::memcpy(wire.data() + kRemoteCmdHeaderBytes, cmd.data.data(),
                cmd.data.size());
  }
  return wire;
}

Command decode_remote(std::span<const std::byte> wire) {
  if (wire.size() < kRemoteCmdHeaderBytes) {
    throw std::invalid_argument("decode_remote: short payload");
  }
  Command cmd;
  cmd.op = static_cast<CmdOp>(wire[0]);
  if (!op_encodable(cmd.op)) {
    throw std::invalid_argument("decode_remote: bad op");
  }
  const auto flags = static_cast<unsigned>(wire[1]);
  cmd.set_cls = (flags & 1u) != 0;
  cmd.chunk_notify = (flags & 4u) != 0;
  cmd.cls_bits = static_cast<std::uint8_t>(wire[2]);
  const std::uint16_t qsrc = get_u16(wire.data() + 4);
  if (cmd.op == CmdOp::kNotifyLocal) {
    cmd.queue = qsrc;
  } else {
    cmd.src_node = qsrc;
  }
  cmd.tag = get_u16(wire.data() + 6);
  const std::uint64_t addr_word = get_u64(wire.data() + 8);
  cmd.addr = addr_word & ((std::uint64_t{1} << 40) - 1);
  if (cmd.op == CmdOp::kWriteClsState) {
    cmd.len = static_cast<std::uint32_t>(addr_word >> 40);
  }
  cmd.data.assign(wire.begin() + kRemoteCmdHeaderBytes, wire.end());
  if (cmd.op == CmdOp::kWriteApDram) {
    cmd.len = static_cast<std::uint32_t>(cmd.data.size());
  }
  return cmd;
}

}  // namespace sv::niu
