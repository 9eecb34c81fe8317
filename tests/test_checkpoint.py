"""Streaming execution: checkpoint/resume, incremental merge, budgets.

The hard contract under test is byte-identity: however a run is
executed (serial, pooled, sub-chunk-streamed under a starved byte
budget) and however it is interrupted (a journal cut at any chunk
boundary or mid-line), the final canonical JSON must equal the
uninterrupted serial reference.  See docs/scaling.md.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.analysis.montecarlo import MCResult
from repro.api import ExperimentRunner, ExperimentSpec, FaultSpec
from repro.api.journal import JOURNAL_FORMAT, ChunkJournal
from repro.api.lifetime import LifetimeResult
from repro.api.protocol import LifetimeSpec, TrafficSpec
from repro.api.traffic import TrafficOutcome, TrafficResult
from repro.errors import JournalError

#: Cheap spec with several chunks per point and two points, so chunk
#: boundaries, per-point folds and out-of-order arrival all genuinely
#: occur.  chunk_size=7 does not divide trials — the short tail chunk
#: rides along in every case.
SPEC = ExperimentSpec(
    construction="replication",
    params={"n": 8, "d": 2, "replication": 3},
    grid=(FaultSpec(p=0.05), FaultSpec(p=0.2)),
    trials=20,
    chunk_size=7,
    name="ckpt",
)

BN_SPEC = ExperimentSpec(
    construction="bn",
    params={"d": 2, "b": 3, "s": 1, "t": 2},
    grid=(FaultSpec(p=1e-3),),
    trials=20,
    chunk_size=6,
    name="ckpt-bn",
)


def run_bytes(spec, tmp_path, tag, runner=None, **run_kw) -> bytes:
    runner = runner or ExperimentRunner(workers=1)
    out = tmp_path / f"{tag}.json"
    runner.run(spec, **run_kw).save(out)
    return out.read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ref")
    return run_bytes(SPEC, tmp, "ref")


class TestMergeAccumulators:
    """merged() and the incremental merger are the same fold by
    construction — pin it anyway so a refactor cannot split them."""

    def test_mc_incremental_equals_one_shot(self):
        parts = [
            MCResult(trials=7, successes=6, mean_faults=1.25),
            MCResult(trials=7, successes=7, mean_faults=0.5),
            MCResult(trials=6, successes=5, mean_faults=2.0),
        ]
        merge = MCResult.merger()
        for part in parts:
            merge.add(part)
        assert merge.finish() == MCResult.merged(parts)

    def test_lifetime_incremental_equals_one_shot(self):
        parts = [
            LifetimeResult(trials=2, lifetimes=[3, 9], masked=4, replaced=1),
            LifetimeResult(trials=1, lifetimes=[5], exhausted=1),
        ]
        merge = LifetimeResult.merger()
        for part in parts:
            merge.add(part)
        assert merge.finish() == LifetimeResult.merged(parts)

    def test_traffic_incremental_equals_one_shot(self):
        out = TrafficOutcome(offered=4, delivered=4, timed_out=0, cycles=9,
                             max_queue=2, throughput=0.5, mean_latency=3.0,
                             p50=3.0, p99=4.0, max_latency=4.0)
        parts = [TrafficResult(trials=1, outcomes=[out]),
                 TrafficResult(trials=1, outcomes=[out])]
        merge = TrafficResult.merger()
        for part in parts:
            merge.add(part)
        assert merge.finish() == TrafficResult.merged(parts)


class TestCheckpointResume:
    def journal_lines(self, tmp_path) -> list[bytes]:
        journal = tmp_path / "full.ndjson"
        run_bytes(SPEC, tmp_path, "full", checkpoint=journal)
        return journal.read_bytes().split(b"\n")[:-1]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["batch", "scalar"])
    def test_resume_at_every_chunk_boundary(self, tmp_path, reference,
                                            workers, backend):
        lines = self.journal_lines(tmp_path)
        journal = tmp_path / "cut.ndjson"
        for keep in range(len(lines)):  # 0 chunks .. all chunks
            journal.write_bytes(b"\n".join(lines[: keep + 1]) + b"\n")
            got = run_bytes(
                SPEC, tmp_path, f"res{keep}",
                runner=ExperimentRunner(workers=workers, backend=backend),
                checkpoint=journal, resume=True,
            )
            assert got == reference, f"divergence resuming after {keep} chunks"

    def test_resume_after_mid_line_kill(self, tmp_path, reference):
        lines = self.journal_lines(tmp_path)
        journal = tmp_path / "torn.ndjson"
        for cut in (1, 10, len(lines[-1]) - 1):  # torn at several offsets
            journal.write_bytes(b"\n".join(lines[:-1]) + b"\n" + lines[-1][:cut])
            got = run_bytes(SPEC, tmp_path, f"torn{cut}",
                            checkpoint=journal, resume=True)
            assert got == reference

    def test_fully_journaled_resume_runs_nothing(self, tmp_path, reference):
        lines = self.journal_lines(tmp_path)
        journal = tmp_path / "done.ndjson"
        journal.write_bytes(b"\n".join(lines) + b"\n")
        got = run_bytes(SPEC, tmp_path, "done", checkpoint=journal, resume=True)
        assert got == reference

    def test_resume_missing_file_starts_fresh(self, tmp_path, reference):
        journal = tmp_path / "never-written.ndjson"
        got = run_bytes(SPEC, tmp_path, "fresh", checkpoint=journal, resume=True)
        assert got == reference
        assert journal.exists()

    def test_checkpoint_without_resume_restarts_journal(self, tmp_path):
        journal = tmp_path / "restart.ndjson"
        run_bytes(SPEC, tmp_path, "a", checkpoint=journal)
        first = journal.read_bytes()
        run_bytes(SPEC, tmp_path, "b", checkpoint=journal)
        assert journal.read_bytes() == first  # rewritten from scratch, same run

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            ExperimentRunner().run(SPEC, resume=True)

    def test_resume_with_different_budget_and_workers(self, tmp_path, reference):
        lines = self.journal_lines(tmp_path)
        journal = tmp_path / "mixed.ndjson"
        journal.write_bytes(b"\n".join(lines[:3]) + b"\n")
        got = run_bytes(
            SPEC, tmp_path, "mixed",
            runner=ExperimentRunner(workers=2, max_batch_bytes=512),
            checkpoint=journal, resume=True,
        )
        assert got == reference


class TestJournalValidation:
    def make_journal(self, tmp_path) -> list[bytes]:
        journal = tmp_path / "v.ndjson"
        ExperimentRunner().run(SPEC, checkpoint=journal)
        return journal.read_bytes().split(b"\n")[:-1]

    def resume(self, tmp_path, content: bytes):
        journal = tmp_path / "bad.ndjson"
        journal.write_bytes(content)
        return ExperimentRunner().run(SPEC, checkpoint=journal, resume=True)

    def test_corrupt_non_final_line_rejected(self, tmp_path):
        lines = self.make_journal(tmp_path)
        bad = b"\n".join([lines[0], b"{not json", *lines[2:]]) + b"\n"
        with pytest.raises(JournalError, match="corrupt journal line"):
            self.resume(tmp_path, bad)

    def test_unknown_format_rejected(self, tmp_path):
        lines = self.make_journal(tmp_path)
        header = json.loads(lines[0])
        header["format"] = "repro-chunk-journal-v999"
        bad = b"\n".join([json.dumps(header).encode(), *lines[1:]]) + b"\n"
        with pytest.raises(JournalError, match="format"):
            self.resume(tmp_path, bad)

    def test_spec_mismatch_rejected(self, tmp_path):
        journal = tmp_path / "other.ndjson"
        ExperimentRunner().run(BN_SPEC, checkpoint=journal)
        with pytest.raises(JournalError, match="different spec"):
            ExperimentRunner().run(SPEC, checkpoint=journal, resume=True)

    def test_out_of_range_chunk_rejected(self, tmp_path):
        lines = self.make_journal(tmp_path)
        rec = json.loads(lines[1])
        rec["chunk"] = 99
        bad = b"\n".join([lines[0], json.dumps(rec).encode(), *lines[2:]]) + b"\n"
        with pytest.raises(JournalError, match="outside"):
            self.resume(tmp_path, bad)

    def test_header_only_fragment_starts_fresh(self, tmp_path, caplog):
        # A kill during the very first write leaves a torn header: not an
        # error — the journal is rebuilt from scratch.
        journal = tmp_path / "torn-header.ndjson"
        journal.write_bytes(b'{"format": "repro-chu')
        with caplog.at_level(logging.WARNING, logger="repro.api.journal"):
            ExperimentRunner().run(SPEC, checkpoint=journal, resume=True)
        assert "no complete header" in caplog.text
        assert json.loads(journal.read_text().splitlines()[0])["format"] == \
            JOURNAL_FORMAT

    def test_journal_format_shape(self, tmp_path):
        lines = self.make_journal(tmp_path)
        header = json.loads(lines[0])
        assert header["format"] == JOURNAL_FORMAT
        assert header["spec"] == SPEC.to_dict()
        assert header["total_chunks"] == len(lines) - 1
        for line in lines[1:]:
            rec = json.loads(line)
            assert set(rec) == {"point", "chunk", "result"}


class TestStreamingEdges:
    def test_chunk_size_larger_than_trials(self, tmp_path):
        spec = ExperimentSpec(
            construction="replication", params={"n": 8, "d": 2, "replication": 3},
            grid=(FaultSpec(p=0.05),), trials=3, chunk_size=100, name="one-chunk",
        )
        journal = tmp_path / "one.ndjson"
        a = run_bytes(spec, tmp_path, "a", checkpoint=journal)
        assert len(journal.read_bytes().split(b"\n")[:-1]) == 2  # header + 1
        b = run_bytes(spec, tmp_path, "b",
                      runner=ExperimentRunner(workers=4),
                      checkpoint=journal, resume=True)
        assert a == b

    def test_tiny_byte_budget_is_byte_identical(self, tmp_path):
        ref = run_bytes(BN_SPEC, tmp_path, "ref")
        # 1-byte budget -> every kernel degenerates to one-trial slices.
        starved = run_bytes(BN_SPEC, tmp_path, "starved",
                            runner=ExperimentRunner(max_batch_bytes=1))
        assert starved == ref

    def test_lifetime_and_traffic_streamed_chunks(self, tmp_path):
        spec = ExperimentSpec(
            construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(LifetimeSpec(), TrafficSpec(pattern="uniform", messages=24)),
            trials=10, chunk_size=4, name="mixed",
        )
        ref = run_bytes(spec, tmp_path, "ref")
        starved = run_bytes(spec, tmp_path, "starved",
                            runner=ExperimentRunner(max_batch_bytes=256))
        assert starved == ref
        journal = tmp_path / "mixed.ndjson"
        run_bytes(spec, tmp_path, "full", checkpoint=journal)
        lines = journal.read_bytes().split(b"\n")[:-1]
        journal.write_bytes(b"\n".join(lines[:4]) + b"\n")
        resumed = run_bytes(spec, tmp_path, "resumed",
                            runner=ExperimentRunner(workers=2),
                            checkpoint=journal, resume=True)
        assert resumed == ref

    def test_progress_lines_logged(self, caplog):
        runner = ExperimentRunner(progress_interval=0.0)
        with caplog.at_level(logging.INFO, logger="repro.api.experiment"):
            runner.run(SPEC)
        progress = [r.getMessage() for r in caplog.records
                    if "progress:" in r.getMessage()]
        assert len(progress) == 6  # 2 points x 3 chunks, interval 0 logs all
        assert "trials/s" in progress[-1] and "peak buffer" in progress[-1]
        assert progress[-1].startswith("progress: 6/6 chunks (100%)")
