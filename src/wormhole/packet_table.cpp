#include <string>

#include "common/archive.hpp"
#include "wormhole/flit.hpp"

namespace wormsched::wormhole {

namespace {

std::string packet_name(PacketId id) {
  return "packet " + std::to_string(id.value());
}

}  // namespace

void PacketTable::clear() {
  packets_.clear();
  free_.clear();
  finish_restore();
}

void PacketTable::restore_sending(Archive& a, PacketSlot front, Flits sent) {
  const PacketDescriptor& p = packets_[front];
  const auto [it, fresh] = restoring_.try_emplace(
      p.id.value(), Restoring{front, sent, p.length, -1});
  if (!fresh)
    a.fail("sent_of_current",
           "= " + std::to_string(sent) + " sends " + packet_name(p.id) +
               ", which another NIC sends too");
}

PacketSlot PacketTable::restore_flit(Archive& a, const PacketDescriptor& p,
                                     FlitType type, std::uint32_t index) {
  // Messages are built only on the failing path: a restore reads every
  // flit in flight through here.
  const auto bad_index = [&a, index](const std::string& what) {
    a.fail("index", "= " + std::to_string(index) + " " + what);
  };
  if (is_head(type) != (index == 0)) bad_index("does not fit the flit's type");
  const auto [it, fresh] = restoring_.try_emplace(p.id.value());
  Restoring& r = it->second;
  if (fresh) {
    r.slot = add(p);
  } else {
    const PacketDescriptor& q = packets_[r.slot];
    const auto disagree = [&a, &p, &r](const char* field, std::uint64_t v,
                                       std::uint64_t theirs) {
      a.fail(field, "= " + std::to_string(v) + " disagrees with " +
                        (r.nic_sent >= 0 ? "its NIC's front "
                                         : "the other flits of ") +
                        packet_name(p.id) + ", whose " + field + " is " +
                        std::to_string(theirs));
    };
    if (p.flow != q.flow) disagree("flow", p.flow.value(), q.flow.value());
    if (p.source != q.source)
      disagree("source", p.source.value(), q.source.value());
    if (p.dest != q.dest) disagree("dest", p.dest.value(), q.dest.value());
    if (p.created != q.created) disagree("created", p.created, q.created);
  }
  const Flits i = index;
  if (r.nic_sent >= 0 && i >= r.nic_sent)
    bad_index("is not among the " + std::to_string(r.nic_sent) +
              " flits its NIC has sent of " + packet_name(p.id));
  if (!restored_flits_.insert(std::uint64_t{r.slot} << 32 | index).second)
    bad_index("repeats a flit of " + packet_name(p.id));
  if (is_tail(type)) {
    if ((r.length >= 0 && i + 1 != r.length) || i < r.max_index)
      bad_index("puts the tail of " + packet_name(p.id) +
                " before another of its flits");
    r.length = i + 1;
    packets_[r.slot].length = r.length;
  } else if (r.length >= 0 && i + 1 >= r.length) {
    bad_index("lies past the tail of " + packet_name(p.id));
  }
  if (i > r.max_index) r.max_index = i;
  return r.slot;
}

void PacketTable::finish_restore() {
  restoring_ = {};
  restored_flits_ = {};
}

}  // namespace wormsched::wormhole
