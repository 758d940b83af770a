"""Byte identity of the reference runs and of a certificate an earlier release wrote.

``DIGESTS`` holds the sha256 of :func:`physbc.pipeline.report_json` of each
reference setting's report, without its ``timing`` block, and of its
certificate's ``to_dict``: the eight settings at scale 1.0, and the eight at
scale 0.05 with the HiGHS cross-check on.  A change meant to keep behaviour (a
refactor, a deletion, a speed-up) leaves every digest in place.  A change that
moves report bytes on purpose updates the digests it moved and names those
settings, and the reason, in CHANGES.md.

``data/lg-prob-phys-0.05`` holds the ``certificate.json`` and ``report.json``
that ``physbc run`` wrote at commit d2ac76e, when a certificate still carried
a template object; ``plotdata`` and ``validate`` must read them as that release
did.  That release recorded i.i.d. draws in draw order:
:func:`oracles.sample_iid_in_draw_order` rebuilds its ``dataset.csv``, which
is pinned by its bytes, and so are the files ``plotdata`` writes from it, both
as written by one process and with the CSV text work split with a forked
child.  Today's run of the same config records the same pairs in ascending
state order, and writes the same certificate and the same report apart from
the dataset hash and the longest discarded run, and for the last digits of
the fields that read the barrier's values on the pairs: that release summed
them through a basis matrix and a BLAS product, and today's evaluation runs
Horner's rule.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import sample_iid_in_draw_order

from physbc import sampling
from physbc.cli import main
from physbc.config import RunConfig
from physbc.pipeline import report_json

DIGESTS = {
    ("sd-det-trad", 1.0): ("de29bf290f14ba5957f3df7de65d3d9b003ac812ca217a91ce3917d0d36df342",
                               "ec34ef4d94daaea81e9b1e8c7bb607ec0e7349c23a63fd113a74409d8bebbb67"),
    ("sd-det-phys", 1.0): ("133b824dcddce87e15a904c322a46b80b15012912d6601f5796d70ffcc9c81ad",
                               "7e0e2f9a835d4ac2bed8365b8b830093e9478fe1e6fc69ff75716e715ba77abd"),
    ("sd-prob-trad", 1.0): ("f17647c403d95532040d7164a98365a45c6a6bf39542e08910402fd772319699",
                                "f68c640e0e0592c136f70661c06583dc01e7d8f8839fdb0f6debc4cec2ce82f3"),
    ("sd-prob-phys", 1.0): ("78047b346e2dc90df0746d42290c62dc3365c21c687cfc52695c50d7f4dc8064",
                                "1a5aff29634cd91de7de2293fe0de7199eb0f4c0b546a2f919855ee8834b9f43"),
    ("lg-det-trad", 1.0): ("c74dda252c582d5dfd1488035f4736abb50e7f50882697b2832835719b61a7b0",
                               "67c4fcb21ea26bf0be87d940a6d463f0aacd423e40f13ab7c23fade259b64ff2"),
    ("lg-det-phys", 1.0): ("7c3cb71eda96c01dcfb1845347d0e7e6d1189665f16e799f9b07a872d6b0e5b2",
                               "061be46d4f493d62dcafb1f3db06ad89a185c2947f62709f7fc4bb0970b4370a"),
    ("lg-prob-trad", 1.0): ("d93e5005a2b5f3ca197543712ae3128204c2f20447338d3d18480b774115330b",
                                "fe0b0ced1eab4ef10562f09dcc1863b9f6d2e67019d7dc090cea727f54e9d7a0"),
    ("lg-prob-phys", 1.0): ("7ad0ffce050dc8d4b179b7e56fd0487524d8203fe3d6e0e4cc809ae010d468c7",
                                "3a0d1845683503befbbe8b9eb12d2d9c1f62088483434bf52c006ec4e022d258"),
    ("sd-det-trad", 0.05): ("6c9ce2b8c8bdfe518aa80695a8c41b600ac85bc44d8b21f246885ad1b21f1db9",
                               "9c9fb8bf8ba1432d683122982520e03e601467e8a5f8a756d59bfef8324b0cef"),
    ("sd-det-phys", 0.05): ("0e33adfc4f6f391b6c348cfc46dc77332b271cb449b6500b7f3df99b22458e7a",
                               "b0c34fe44dbc9b29f722580d0d96534e15492ac2c056ed206c1924103fdb8ae5"),
    ("sd-prob-trad", 0.05): ("e7784be57d2fc7a70a8873f8bc99c56f63cd8770376576fa1e127196858b8459",
                                "adc5ea6cefc6d7a43e4326d9b907b97744fc4906769827a92289980efee27514"),
    ("sd-prob-phys", 0.05): ("0f7456f031f778d6554a4ee7ffb7edaa9ec1b0bd621572835f35243a961d0610",
                                "32394deece873a2dd57ff38570241e6d81c5842b47fd2b0ba89108bab242af9b"),
    ("lg-det-trad", 0.05): ("6149c97495e726f5032d089bc2d0bf14e6d0bca1addd4a417336795bb837c430",
                               "46c10a9eaf4bd51ec337839b8eb4d1a16b7fd02957727538289b3749ddb405ca"),
    ("lg-det-phys", 0.05): ("98db3153f5d4e4c1dfa0b22b853ea3eb89ba6382bcd4b44feb6c25c55f8a300b",
                               "95c3c9c1b4358d649ae25c1cc94cf9191831d540000396b9c507ba2b144dfe79"),
    ("lg-prob-trad", 0.05): ("2bb56faa29f9007b7bc2395bb3f523eec27377df9558d03cdb25330344823eb7",
                                "245f16334792c86404881ab32317b255ef910eadf916bb339df570783dd77c9c"),
    ("lg-prob-phys", 0.05): ("f6163562abcce2db9ddb4188b06de646186f1f777fc309ef049cf511d55f899c",
                                "1a92291c9185aa9eb67c3857634c226ed551cf6caba257bbce9ce3cfa78112bb"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_reports_and_certificates_keep_their_bytes(reference_runs, smoke_runs):
    moved = []
    for (key, scale), expected in DIGESTS.items():
        _, certificate, report = (reference_runs if scale == 1.0 else smoke_runs)[key]
        untimed = {k: v for k, v in report.items() if k != "timing"}
        digests = tuple(_sha256(report_json(part).encode("ascii"))
                        for part in (untimed, certificate.to_dict()))
        moved += [f"{key} at {scale} ({part})"
                  for part, new, old in zip(("report", "certificate"), digests, expected)
                  if new != old]
    assert not moved, "digests moved: " + ", ".join(moved)


EARLIER_RUN = Path(__file__).parent / "data" / "lg-prob-phys-0.05"

# What plotdata wrote from the earlier release's report, and what validate
# printed for its certificate, at that release.
EARLIER_PLOTDATA = {
    "barrier_curve.csv": "1a81f2eef4c3e418e612f87ff092d72240fa128866764363111f4642d08ea38c",
    "jump.csv": "da1f91138dcac15f040fc654fb749edbdfbfe22f345944f6c7c2b88d06deb817",
    "levels.csv": "9fe12ab50b74cbe5a01f006eacf3b5491b1a01a013d5b363eb3bab1d9af55296",
    "samples.csv": "2947e6ab163e3a0da7194a2fa6ba992be9c239e7b54b1b3596a4934d0efce571",
}
EARLIER_VALIDATE = ("levels: initial 0.0001 < unsafe 0.968033: ok\n"
                    "simulated 1000 trajectories x 500 steps: 0 unsafe entries\n"
                    "verdict: pass\n")


# What run wrote as dataset.csv for the earlier release's config, with the
# draws in draw order; the one-process and the forked-child CSV paths both
# write it.
EARLIER_DATASET = "8f9f42eaf8a228f15534e0662e8c7d8d5e9e70e8b54319c15f28974e314af89f"

# The report fields that the ascending record of the draws moves.
REORDERED = (("dataset", "hash"), ("filter", "max_jump"))

# The report fields that read the barrier's values on the pairs, which
# Horner's rule rounds differently from the earlier basis-matrix product; they
# agree to this relative difference.
REEVALUATED = (("residuals", "flow_max"), ("lipschitz", "flow"), ("lipschitz", "overall"),
               ("certification", "lipschitz"), ("certification", "condition"))
REEVALUATED_RTOL = 1e-12


def _draw_order_dataset(earlier):
    """The pairs of the earlier release's run, in the order it recorded them."""
    config = RunConfig.from_dict(earlier["config"])
    return sample_iid_in_draw_order(config.true_model(), config.domain,
                                    config.sampling.count, config.sampling.seed)


def _run_and_plot(tmp_path, earlier, drawn):
    """``run`` the earlier release's config, then ``plotdata`` its report beside
    ``drawn`` saved as its dataset; returns the fresh run directory, the
    earlier run directory and the plot directory."""
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(earlier["config"]))
    fresh = tmp_path / "fresh"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(fresh)])
    assert result.exit_code == 2, result.output  # this setting's verdict is fail

    # the earlier files beside the dataset that release wrote
    old = tmp_path / "earlier"
    shutil.copytree(EARLIER_RUN, old)
    sampling.save_dataset(drawn, str(old / "dataset.csv"))
    plot = tmp_path / "plot"
    result = CliRunner().invoke(main, ["plotdata", "--report", str(old / "report.json"),
                                       "--out", str(plot)])
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote barrier_curve.csv, levels.csv, samples.csv, jump.csv to {plot}\n"
    return fresh, old, plot


def _digests(plot):
    return {p.name: _sha256(p.read_bytes()) for p in plot.iterdir()}


def _without_reordered(report):
    """``report`` without its timing, the fields the order of the draws moves
    and those the evaluation of the barrier moves."""
    kept = {**report, "timing": None}
    for section, field in REORDERED + REEVALUATED:
        kept[section] = {**kept[section], field: None}
    return kept


def test_artifacts_an_earlier_release_wrote_read_as_they_did(tmp_path, monkeypatch):
    earlier = json.loads((EARLIER_RUN / "report.json").read_text())
    drawn = _draw_order_dataset(earlier)
    fresh, old, plot = _run_and_plot(tmp_path / "one", earlier, drawn)
    assert _sha256((old / "dataset.csv").read_bytes()) == EARLIER_DATASET
    assert _digests(plot) == EARLIER_PLOTDATA
    # the same config writes the same certificate today, and the same report
    # but for the fields the ascending record of the same draws moves
    assert (fresh / "certificate.json").read_bytes() == (
        EARLIER_RUN / "certificate.json").read_bytes()
    report = json.loads((fresh / "report.json").read_text())
    assert _without_reordered(report) == _without_reordered(earlier)
    assert all(report[s][f] != earlier[s][f] for s, f in REORDERED)
    for s, f in REEVALUATED:
        assert report[s][f] == pytest.approx(earlier[s][f], rel=REEVALUATED_RTOL, abs=0)
    order = np.argsort(drawn.states, kind="stable")
    today = sampling.load_dataset(str(fresh / "dataset.csv"))
    assert today.states.tobytes() == drawn.states[order].tobytes()
    assert today.successors.tobytes() == drawn.successors[order].tobytes()
    written = (fresh / "dataset.csv").read_bytes()

    result = CliRunner().invoke(main, ["validate", "--certificate",
                                       str(EARLIER_RUN / "certificate.json"),
                                       "--config", str(tmp_path / "one" / "config.json")])
    assert (result.exit_code, result.output) == (0, EARLIER_VALIDATE)

    # again with the dataset's 13 000 rows split between this process and a
    # forked child: the write in run, the write of the earlier dataset, and
    # the read and the samples.csv write in plotdata
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(sampling, "_ROW_CHUNK", 1000)
    monkeypatch.setattr(sampling, "_SPLIT_ROWS", 2000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    fresh, old, plot = _run_and_plot(tmp_path / "split", earlier, drawn)
    assert len(forks) == 4
    assert (fresh / "dataset.csv").read_bytes() == written
    assert _sha256((old / "dataset.csv").read_bytes()) == EARLIER_DATASET
    assert _digests(plot) == EARLIER_PLOTDATA
