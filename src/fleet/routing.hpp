// Shard routing for the serve fleet: canonical cache key -> worker.
//
// The supervisor routes every valid ksw.query/v1 request by the FNV-1a
// hash of its *canonical* request string — the same identity the
// evaluation cache uses (serve/query.hpp). Two requests that share a
// cache entry therefore always land on the same worker, so each shard's
// LRU stays hot and a repeated tuple is a cache hit no matter which TCP
// connection it arrived on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/query.hpp"

namespace ksw::fleet {

/// The shard hash of a valid request: FNV-1a over Query::canonical().
/// Pure — identical across processes, runs, and architectures.
[[nodiscard]] std::uint64_t shard_hash(const serve::Query& query);

/// Worker for a hash: `hash % workers`. `workers` must be >= 1.
[[nodiscard]] std::size_t route(std::uint64_t hash,
                                std::size_t workers) noexcept;

}  // namespace ksw::fleet
