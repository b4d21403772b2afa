// Renderers for a DiagnosisReport: human text, stable machine-readable
// JSON (schema_version 1; golden-tested byte-for-byte), and Chrome-trace
// instant-event annotations for the timeline.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "diagnose/diagnose.hpp"
#include "trace/chrome_export.hpp"

namespace taskprof::diag {

/// Human-readable report, one block per finding, ranked worst first.
void render_diagnosis_text(const DiagnosisReport& report, std::ostream& os);

/// Stable JSON.  Key order is fixed and doubles use %.6g so identical
/// reports serialize to identical bytes.
[[nodiscard]] std::string render_diagnosis_json(const DiagnosisReport& report);

/// Append the `"findings": [...]` member exactly as render_diagnosis_json
/// writes it (as a top-level member of its object).  render_report_json
/// emits its findings through this too, so both documents share one
/// findings schema.
void append_findings_json(std::string* out,
                          const std::vector<Diagnosis>& findings);

/// Diagnosis findings as timeline annotations (Chrome trace instant
/// events); feed to ChromeExportOptions::annotations.  Findings with no
/// trace-time anchor are pinned to t=0.
[[nodiscard]] std::vector<trace::TraceAnnotation> diagnosis_annotations(
    const DiagnosisReport& report);

}  // namespace taskprof::diag
