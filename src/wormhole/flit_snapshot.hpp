// Checkpoint state of flits and packet descriptors, shared by the router
// and network checkpoints.
#pragma once

#include "common/archive.hpp"
#include "wormhole/flit.hpp"

namespace wormsched::wormhole {

/// `nodes` is the range of the fabric's node ids, which hold every
/// source and dest.
inline void flit_fields(Archive& a, Flit& f, Range<std::uint32_t> nodes) {
  a.enumeration<std::uint8_t>("type", f.type, FlitType::kHeadTail);
  a.id("packet", f.packet);
  a.id("flow", f.flow);
  a.id("source", f.source, nodes);
  a.id("dest", f.dest, nodes);
  a.id("vc_class", f.vc_class);
  a.i64("index", f.index);
  a.u64("created", f.created);
}

inline void packet_fields(Archive& a, PacketDescriptor& p,
                          Range<std::uint32_t> nodes) {
  a.id("id", p.id);
  a.id("flow", p.flow);
  a.id("source", p.source, nodes);
  a.id("dest", p.dest, nodes);
  a.i64("length", p.length, at_least<Flits>(1));
  a.u64("created", p.created);
}

}  // namespace wormsched::wormhole
