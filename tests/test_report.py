"""JSON report emission: schema, verdict-specific fields, determinism."""

import json

from conftest import poly
from liptriv.classifier import classify
from liptriv.polycore import PolyMap
from liptriv.report import emit_report, render_text, report_document

SCHEMA_KEYS = {
    "input",
    "field",
    "invariance_dim",
    "projection_matrix",
    "reduced_map",
    "jelonek_generators",
    "critical_generators",
    "ltv",
    "checks",
}


class TestReportDocument:
    def test_complement_report_lists_generators(self, simple_map):
        doc = report_document(classify(simple_map, "complex"))
        assert SCHEMA_KEYS <= set(doc)
        assert doc["ltv"] == "complement"
        assert doc["ltv_complement"] == ["t1"]

    def test_empty_report_has_reason(self, bad_map):
        doc = report_document(classify(bad_map, "complex"))
        assert doc["ltv"] == "empty"
        assert doc["reason"]

    def test_identity_map_all_values(self):
        ring = ("x", "y")
        ident = PolyMap(ring, (poly(ring, "x"), poly(ring, "y")))
        doc = report_document(classify(ident, "complex"))
        assert doc["ltv"] == "all values"

    def test_stable_key_order(self, simple_map):
        doc = report_document(classify(simple_map, "complex"))
        keys = list(doc)
        assert keys.index("tool_version") == 0
        assert keys.index("input") < keys.index("field") < keys.index("ltv")
        assert keys[-1] == "checks"

    def test_emitted_json_parses_and_round_trips(self, simple_map):
        text = emit_report(classify(simple_map, "complex"))
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, allow_nan=False) + "\n" == text

    def test_text_rendering_mentions_verdict(self, bad_map):
        text = render_text(classify(bad_map, "complex"))
        assert "Ltv: empty" in text
        assert "reason:" in text


class TestRegularValueInvariant:
    def test_attained_critical_values_excluded_from_complement(self, simple_map):
        # The single critical value sits inside the excluded variety, so the
        # reported Lipschitz trivial set never contains it.
        rep = classify(simple_map, "complex")
        critical_value = [0, 0]
        assert any(
            g.eval_exact(critical_value) == 0 for g in rep.ltv.generators
        ) or all(g.eval_exact(critical_value) == 0 for g in rep.critical.generators)
        assert all(g.eval_exact(critical_value) == 0 for g in rep.ltv.generators)

    def test_real_candidates_carry_attainment_flags(self, motzkin_map):
        from liptriv.classifier import AnalysisConfig
        from liptriv.properness import ProbeSchedule

        cfg = AnalysisConfig(ProbeSchedule(radii=(10.0, 100.0)))
        rep = classify(motzkin_map, "real", cfg)
        assert {r.status for r in rep.ltv.critical_candidates} == {"attained"}
