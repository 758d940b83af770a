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
the dataset hash and the longest discarded run.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from oracles import sample_iid_in_draw_order

from physbc import sampling
from physbc.cli import main
from physbc.config import RunConfig
from physbc.pipeline import report_json

DIGESTS = {
    ("sd-det-trad", 1.0): ("66ec5f80cb56bd544ed20133983ad2dbb0c69a0e775c5e0cc48aed2331577fdf",
                               "ec34ef4d94daaea81e9b1e8c7bb607ec0e7349c23a63fd113a74409d8bebbb67"),
    ("sd-det-phys", 1.0): ("29892482151af4675fa55fd589c9b47b653b40720e662fd2248498e11d45d5ef",
                               "7e0e2f9a835d4ac2bed8365b8b830093e9478fe1e6fc69ff75716e715ba77abd"),
    ("sd-prob-trad", 1.0): ("e39172d7d367e4518bfd94018a0750a4440e68e26d21c30d51bf0478ec31ff1b",
                                "f68c640e0e0592c136f70661c06583dc01e7d8f8839fdb0f6debc4cec2ce82f3"),
    ("sd-prob-phys", 1.0): ("33a7cc0c8035b2251d619cc8a63a765b9081becef5e2b9e393dda9e803b2a04b",
                                "1a5aff29634cd91de7de2293fe0de7199eb0f4c0b546a2f919855ee8834b9f43"),
    ("lg-det-trad", 1.0): ("3c97890eabb94da775416380433a7a93622770cb3af054a7193b7a3ad0a680b1",
                               "67c4fcb21ea26bf0be87d940a6d463f0aacd423e40f13ab7c23fade259b64ff2"),
    ("lg-det-phys", 1.0): ("3478e284056bffa53edb80731d5335beb7d48bdd8863de717876db547e6e3190",
                               "061be46d4f493d62dcafb1f3db06ad89a185c2947f62709f7fc4bb0970b4370a"),
    ("lg-prob-trad", 1.0): ("f38702de1a61ee91e18be4551b0b900884f3f9e1f79b854023d6150b846cfe05",
                                "fe0b0ced1eab4ef10562f09dcc1863b9f6d2e67019d7dc090cea727f54e9d7a0"),
    ("lg-prob-phys", 1.0): ("6b8938b348b02180e88ca0357344fbeb0e0c88a82f257df6cda670c938a6ae79",
                                "3a0d1845683503befbbe8b9eb12d2d9c1f62088483434bf52c006ec4e022d258"),
    ("sd-det-trad", 0.05): ("1f8d762fea1eb5e2ae60d4fe9bef8e302f0c4862f8b7ac1c51a18b69c3ad1c99",
                               "9c9fb8bf8ba1432d683122982520e03e601467e8a5f8a756d59bfef8324b0cef"),
    ("sd-det-phys", 0.05): ("77bcf684e48e62d83f6a00d3a0e29700f240ee2fcb0ffab7e2775bbb66ef2c9b",
                               "b0c34fe44dbc9b29f722580d0d96534e15492ac2c056ed206c1924103fdb8ae5"),
    ("sd-prob-trad", 0.05): ("2c6c3c457e5a9183014f316b839f139d5b8a6c27d553072de6524d168c011b04",
                                "adc5ea6cefc6d7a43e4326d9b907b97744fc4906769827a92289980efee27514"),
    ("sd-prob-phys", 0.05): ("59480bd2d3fd31e2fbd9af7ec04a0b781de2ff671bbfd7329c92df089e103c2d",
                                "32394deece873a2dd57ff38570241e6d81c5842b47fd2b0ba89108bab242af9b"),
    ("lg-det-trad", 0.05): ("d542f224923a55b92b4830b251b9e4030c9b9f421ca8a95b5518d2235ded77d5",
                               "46c10a9eaf4bd51ec337839b8eb4d1a16b7fd02957727538289b3749ddb405ca"),
    ("lg-det-phys", 0.05): ("d710b309bbd62d071e90c9985bf8e28adf31053ac2feb457f4fb1f35911275ad",
                               "95c3c9c1b4358d649ae25c1cc94cf9191831d540000396b9c507ba2b144dfe79"),
    ("lg-prob-trad", 0.05): ("27e51f424ccda3bcd67efa0ce8b9dbacf005068b000198babfbfed721e9ae9d4",
                                "245f16334792c86404881ab32317b255ef910eadf916bb339df570783dd77c9c"),
    ("lg-prob-phys", 0.05): ("532fe2b22cda32e8d5fcc9bd0f7592d5f7b745f18737c9c4c4b00a0a374f1fa0",
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
    "barrier_curve.csv": "cd126ff20edeb30e6d652aa5dc613109bb0b44f2b2f6b0dd17c4b149e000f1d5",
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
    """``report`` without its timing and the fields the order of the draws moves."""
    kept = {**report, "timing": None}
    for section, field in REORDERED:
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
