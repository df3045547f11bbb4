"""``scipy.sparse.csgraph`` is imported only when a graph of at least
``checking._SEARCH_LIMIT`` states is searched.  In a process that has not
loaded ``scipy.sparse``, the import costs far more time and memory than the
small searches it would serve, so each case runs in a fresh interpreter
and reports whether the module was loaded."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loads_csgraph(body: str) -> bool:
    script = textwrap.dedent(f"""\
        import sys
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
        from fractions import Fraction
        from mimdp import checking
        from mimdp.cli import main
        from mimdp.models import build_model
        from mimdp.parser import parse_file, parse_program
        from mimdp.program import pretty
        from mimdp.synthesis import SynthesisQuery, synthesize, synthesize_enumerate
        MODELS = {str(ROOT / "models")!r}
    """) + textwrap.dedent(body) + "\nprint('scipy.sparse.csgraph' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_checking_the_bundled_models_does_not_load_it():
    assert not _loads_csgraph("""
        cases = {
            "die": ("p=0.5", ('Pmax=? [F "one"]', 'ECmin=? [F "rolled"]',
                              'P=? [F{C<5} "rolled"]')),
            "two_stage": ("p=0.4,q=0.3,r=0.6,s=0.7", ('P=? [F "s2"]', 'ECmin=? [F "absorb"]')),
            # the C<10 product has 81 x 11 = 891 states
            "retry_channel": ("loss=0.4", ('Pmax=? [F "gaveup"]', 'ECmin=? [F "stopped"]',
                                           'P=? [F{C<3} "delivered"]',
                                           'P=? [F{C<10} "delivered"]')),
        }
        for name, (valuation, props) in cases.items():
            for prop in props:
                code = main(["check", f"{MODELS}/{name}.mgcl", "--valuation", valuation,
                             "--prop", prop, "-o", "/dev/null"])
                assert code == 0, (name, prop, code)
    """)


def test_enumerating_the_per_sensor_shipyard_family_does_not_load_it():
    assert not _loads_csgraph("""
        from mimdp import shipyard
        program = parse_program(shipyard.generate_program(
            shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=True))
        result = synthesize_enumerate(program, SynthesisQuery("failure", Fraction("0.03"), "done"))
        assert len(result.table) == 1440 and result.feasible
    """)


def test_both_routes_on_random_programs_do_not_load_it():
    assert not _loads_csgraph("""
        import gen
        for generated, query in gen.random_corpus(1, 8):
            synthesize(parse_program(pretty(generated)), query)
    """)


def test_the_cost_bounded_check_of_the_200_retry_chain_loads_it():
    assert _loads_csgraph("""
        text = open(f"{MODELS}/retry_channel.mgcl").read()
        chain = build_model(parse_program(text.replace("const retries = 40;",
                                                       "const retries = 200;")),
                            {"loss": Fraction(2, 5)})
        assert "scipy.sparse.csgraph" not in sys.modules
        value = checking.cost_bounded_reach(chain, "delivered", 20)
        assert abs(value - (1 - 0.4 ** 19)) <= 1e-12
    """)


def test_the_one_pass_solve_of_the_controlled_40_retry_channel_does_not_load_it():
    # its 241 states are below the limit, so its backward searches run in
    # the worklist loop, as the search for its components does at every size
    assert not _loads_csgraph("""
        from mimdp.transform import transform_all
        controlled, _ = transform_all(parse_file(f"{MODELS}/retry_channel.mgcl"))
        mdp = build_model(controlled, on_deadlock="absorb")
        assert mdp.num_states < checking._SEARCH_LIMIT
        for direction in ("max", "min"):
            vec, _ = checking.reach_prob(mdp, "gaveup", direction)
            assert (vec.iterations, vec.residual) == (1, 0.0), vec
        assert abs(vec.at_initial(mdp) - 0.1 ** 40) <= 1e-6 * 0.1 ** 40
    """)
