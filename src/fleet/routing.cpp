#include "fleet/routing.hpp"

namespace ksw::fleet {

std::uint64_t shard_hash(const serve::Query& query) {
  return serve::fnv1a64(query.canonical());
}

std::size_t route(std::uint64_t hash, std::size_t workers) noexcept {
  return static_cast<std::size_t>(hash % workers);
}

}  // namespace ksw::fleet
