// JSON fault-plan loader: the file format behind `kswsim ... --fault-plan`.
//
// A plan names the sites to arm and when they fire:
//
//   {
//     "schema": "ksw.faults/v1",
//     "sites": {
//       "replicate.throw": { "fire_at": 3 },
//       "point.slow": { "delay_ms": 250 }
//     }
//   }
//
// Parsing is strict (unknown keys and sites are hard errors) and arming
// goes through fault::arm.
#pragma once

#include <string>

#include "io/json.hpp"

namespace ksw::fault {

/// Arm every site of an already-parsed plan document.
/// Throws ksw::Error(kUsage) on schema violations.
void arm_from_plan(const io::Json& doc);

/// Read + parse + arm a plan file. Throws ksw::Error(kIo) when the file
/// cannot be read, kUsage on malformed plans.
void load_plan(const std::string& path);

}  // namespace ksw::fault
