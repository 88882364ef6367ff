// Kernel evaluation for the query service: a canonical Query in, the
// compact bytes of its JSON result object out.
//
// Every kernel is a pure function of the parameter tuple — no randomness,
// no wall clock — which is what makes the evaluation cache sound: the
// serialized result bytes are the content the canonical request addresses.
// Failures propagate as exceptions and are classified by the service into
// in-band error kinds (ksw::Error(kNumeric) -> "numeric",
// std::invalid_argument -> "usage", anything else -> "internal").
#pragma once

#include <string>

#include "serve/query.hpp"

namespace ksw::serve {

/// Evaluate one query against the analytic core, serialized to the
/// compact bytes the cache stores and the response envelope splices in
/// verbatim. Throws on model rejection (saturated load, ill-conditioned
/// series, bad spec).
[[nodiscard]] std::string evaluate_bytes(const Query& query);

}  // namespace ksw::serve
