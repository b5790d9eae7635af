"""The benchmark tracer (perfbench/tracer.py) replaces each of its targets in
``owner.__dict__`` and puts the original back on exit.  A target that is
renamed, deleted or moved into a base class breaks traced benchmark runs, so
this guard loads the tracer, read only, and checks every target."""

import types
from pathlib import Path

from sdharm import cli, jets

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SCENE = Path(__file__).resolve().parent.parent / "scenes" / "type4_berger_ew.json"


def load_tracer():
    """Execute tracer.py into a fresh module without writing next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_wraps_and_restores_every_target(capsys):
    tracer = load_tracer()
    targets = [(tracer.target_name(*t),) + t[1:] for t in tracer.TARGETS]
    for name, owner, attr in targets:
        assert attr in vars(owner), f"{name} is not an attribute of {owner.__name__} itself"
    originals = {name: vars(owner)[attr] for name, owner, attr in targets}
    jet_init = vars(jets.Jet)["__init__"]

    with tracer.Tracer() as t:
        for name, owner, attr in targets:
            assert vars(owner)[attr] is not originals[name], name
        assert cli.main(["verify", str(SCENE), "--checks", "twistorial_basic"]) == 0
    capsys.readouterr()

    assert t.calls["morphism.SubmersionSetup.ctx"] > 0
    assert t.calls["morphism.twistorial_basic_residual"] == 1     # once over the 5 points
    for name, owner, attr in targets:
        assert vars(owner)[attr] is originals[name], name
    assert vars(jets.Jet)["__init__"] is jet_init
