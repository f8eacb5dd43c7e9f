// Checkpoint state of flits and packet descriptors, shared by the router
// and network checkpoints.
#pragma once

#include "common/archive.hpp"
#include "wormhole/flit.hpp"

namespace wormsched::wormhole {

/// What a flit record's ranges and packet fields come from: `packets`
/// holds the packet each flit names, `nodes` is the range of the fabric's
/// node ids (every source and dest), `vcs` the range of its VC classes.
struct FlitContext {
  PacketTable& packets;
  Range<std::uint32_t> nodes;
  Range<std::uint32_t> vcs;
};

inline void packet_fields(Archive& a, PacketDescriptor& p,
                          Range<std::uint32_t> nodes) {
  a.id("id", p.id);
  a.id("flow", p.flow);
  a.id("source", p.source, nodes);
  a.id("dest", p.dest, nodes);
  a.i64("length", p.length, Range<Flits>{1, kMaxPacketFlits});
  a.u64("created", p.created);
}

/// One flit with its packet's fields spelled out, as every checkpoint
/// since format v2 writes it.  A restore files the packet in the table
/// (PacketTable::restore_flit) and keeps only the slot.
inline void flit_fields(Archive& a, Flit& f, const FlitContext& c) {
  PacketDescriptor p = a.saving() ? c.packets[f.slot] : PacketDescriptor{};
  std::uint32_t vc = f.vc_class;
  std::int64_t index = f.index;
  a.enumeration<std::uint8_t>("type", f.type, FlitType::kHeadTail);
  a.id("packet", p.id);
  a.id("flow", p.flow);
  a.id("source", p.source, c.nodes);
  a.id("dest", p.dest, c.nodes);
  a.u32("vc_class", vc, c.vcs);
  a.i64("index", index, Range<Flits>{0, kMaxPacketFlits - 1});
  a.u64("created", p.created);
  if (!a.loading()) return;
  f.vc_class = static_cast<std::uint8_t>(vc);
  f.index = static_cast<std::uint32_t>(index);
  f.slot = c.packets.restore_flit(a, p, f.type, f.index);
}

}  // namespace wormsched::wormhole
