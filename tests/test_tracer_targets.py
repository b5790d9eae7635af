"""The benchmark tracer (perfbench/tracer.py) replaces each of its targets in
``owner.__dict__`` and puts the original back on exit.  A target that is
renamed, deleted or moved into a base class breaks traced benchmark runs, so
this guard loads the tracer, read only, and checks every target."""

import types
from pathlib import Path

import pytest

from sdharm import cli, jets

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SCENES = Path(__file__).resolve().parent.parent / "scenes"


def load_tracer():
    """Execute tracer.py into a fresh module without writing next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


# A command, and what the traced run must count for some targets: a verify job
# of the total space, and a located sweep of the Lee form's scale, whose grid
# steps and golden-section probes each resolve their scene and reach
# einstein_weyl_residual as perfbench's sweep_locate jobs do.
COMMANDS = {
    "verify": (["verify", str(SCENES / "type4_berger_ew.json"), "--checks", "twistorial_basic"],
               {"morphism.SubmersionSetup.ctx": lambda n: n > 0,
                "morphism.twistorial_basic_residual": lambda n: n == 1}),   # over the 5 points
    "sweep_locate": (["sweep", str(SCENES / "berger_ew_sweep.json"), "--param",
                      "alpha.params.scale", "--range=0.5:1.4", "--steps", "8", "--checks",
                      "einstein_weyl", "--locate", "einstein_weyl"],
                     {"weyl3.einstein_weyl_residual": lambda n: n > 8,
                      "cli.ResolvedScene.__init__": lambda n: n > 8,
                      "weyl3.locate_residual_minimum": lambda n: n == 1}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_tracer_wraps_and_restores_every_target(capsys, command):
    argv, called = COMMANDS[command]
    tracer = load_tracer()
    targets = [(tracer.target_name(*t),) + t[1:] for t in tracer.TARGETS]
    for name, owner, attr in targets:
        assert attr in vars(owner), f"{name} is not an attribute of {owner.__name__} itself"
    originals = {name: vars(owner)[attr] for name, owner, attr in targets}
    jet_init = vars(jets.Jet)["__init__"]

    with tracer.Tracer() as t:
        for name, owner, attr in targets:
            assert vars(owner)[attr] is not originals[name], name
        assert cli.main(argv) == 0
    capsys.readouterr()

    for name, count_holds in called.items():
        assert count_holds(t.calls[name]), (name, t.calls[name])
    for name, owner, attr in targets:
        assert vars(owner)[attr] is originals[name], name
    assert vars(jets.Jet)["__init__"] is jet_init
