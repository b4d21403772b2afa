// Machine-readable dump of the text report: per-construct statistics,
// the scheduling-point summary, and the diagnose engine's findings over
// the profile, as stable JSON with a schema_version field so downstream
// consumers can detect format changes.
//
// The findings come from diag::run_diagnosis, so this file is compiled
// into taskprof_diagnose (which itself links taskprof_report).
#pragma once

#include <string>

#include "report/analysis.hpp"

namespace taskprof {

/// Serialize the profile analysis as JSON (schema_version 2).  Key order
/// is fixed and doubles use %.6g, so identical profiles serialize to
/// identical bytes.  The "findings" array is byte-identical to the one
/// render_diagnosis_json writes for run_diagnosis({&profile, &registry}).
[[nodiscard]] std::string render_report_json(const AggregateProfile& profile,
                                             const RegionRegistry& registry);

}  // namespace taskprof
