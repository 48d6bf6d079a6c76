"""Corpus round-trip and the committed regression corpus.

A corpus entry pins a run's complete observable behaviour — per-step
outcomes, clocks, counters, and the transcript fingerprint.  Replaying
it green means the machine still behaves byte-for-byte as it did when
the entry was recorded; any behavioural drift in the simulator shows up
here as a diff naming the first divergent step."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import (
    ENGINE_VERSION,
    FORMAT_VERSION,
    FuzzEngine,
    FuzzRun,
    load_corpus,
    load_run,
    replay_run,
    save_run,
)

pytestmark = pytest.mark.slow

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))
#: A reproducer recorded by engine version 2, kept as it was written.
ENGINE_V2_ENTRY = (
    Path(__file__).parent / "fixtures" / "engine-v2-churn-s1808926366-n9-fail.json"
)


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        run = FuzzEngine(seed=8, schedule="churn").run(40)
        clone = FuzzRun.from_json(run.to_json())
        assert clone.to_dict() == run.to_dict()
        assert clone.seed == run.seed
        assert clone.schedule == run.schedule
        assert clone.fingerprint == run.fingerprint
        assert [s.describe() for s in clone.steps] == [
            s.describe() for s in run.steps
        ]

    def test_record_serialize_replay(self, tmp_path):
        run = FuzzEngine(seed=9, schedule="hostile").run(40)
        path = save_run(run, tmp_path)
        assert path.parent == tmp_path
        loaded = load_run(path)
        result = replay_run(loaded)
        assert result.matches, result.describe()

    def test_save_names_encode_provenance(self, tmp_path):
        run = FuzzEngine(seed=10, schedule="baseline").run(20)
        path = save_run(run, tmp_path)
        assert "baseline" in path.name
        assert "s10" in path.name
        assert run.fingerprint[:12] in path.name
        found = load_corpus(tmp_path)
        assert len(found) == 1
        assert found[0][0] == path


class TestVersioning:
    """Incompatible entries must be rejected with a clear message —
    never a ``KeyError`` from deep inside deserialization."""

    @pytest.fixture
    def entry(self) -> dict:
        return FuzzEngine(seed=4, schedule="baseline").run(5).to_dict()

    def test_current_versions_stamped(self, entry):
        assert entry["format"] == FORMAT_VERSION
        assert entry["engine"] == ENGINE_VERSION

    def test_old_format_rejected(self, entry):
        entry["format"] = 1
        with pytest.raises(ValueError, match="unsupported corpus format 1"):
            FuzzRun.from_dict(entry)

    def test_missing_format_rejected(self, entry):
        del entry["format"]
        with pytest.raises(ValueError, match="unsupported corpus format"):
            FuzzRun.from_dict(entry)

    def test_engine_mismatch_rejected(self, entry):
        entry["engine"] = ENGINE_VERSION + 1
        with pytest.raises(ValueError, match="engine version"):
            FuzzRun.from_dict(entry)

    def test_engine_v2_entry_refused_on_load(self):
        with pytest.raises(ValueError) as exc:
            load_run(ENGINE_V2_ENTRY)
        message = str(exc.value)
        assert ENGINE_V2_ENTRY.name in message
        assert "engine version 2" in message
        assert f"engine is version {ENGINE_VERSION}" in message

    def test_missing_required_keys_named(self, entry):
        del entry["fingerprint"]
        del entry["counters"]
        with pytest.raises(
            ValueError, match="missing required keys: .*fingerprint"
        ):
            FuzzRun.from_dict(entry)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FuzzRun.from_dict(["not", "a", "run"])  # type: ignore[arg-type]

    def test_load_run_names_the_file(self, tmp_path, entry):
        entry["format"] = 1
        path = tmp_path / "stale.json"
        path.write_text(__import__("json").dumps(entry))
        with pytest.raises(ValueError, match="stale.json"):
            load_run(path)

    def test_coverage_field_round_trips(self, entry):
        run = FuzzRun.from_dict(entry)
        assert run.coverage == entry["coverage"]
        assert run.coverage  # engine v2 always records coverage


class TestCommittedCorpus:
    def test_corpus_is_populated(self):
        assert len(CORPUS_FILES) >= 5

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_entry_replays_byte_for_byte(self, path):
        run = load_run(path)
        result = replay_run(run)
        assert result.matches, (
            f"{path.name} diverged — the simulator's behaviour changed:\n"
            + result.describe()
        )

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_entry_contains_contained_faults(self, path):
        """Every committed entry exercises containment: recorded wild
        accesses end in ``fault:``/``refused:`` outcomes, never in
        uncontained success or unexpected errors."""
        run = load_run(path)
        outcomes = [s.outcome for s in run.steps]
        assert not any(o.startswith("error:") for o in outcomes)
        assert not any("uncontained" in o for o in outcomes)
