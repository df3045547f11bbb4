"""The identity gate: ``synthesize(method="both")`` on 100 fixed-seed random
programs gives, byte for byte, what it gave when the digest below was
recorded.  Each call contributes its results' ``to_json_dict()`` with the
exact strategy added, or the type and text of the error it raises, so a
change of any answer, strategy, flag, table row or error shows here."""

import hashlib
import json
import random
import warnings

from generators import random_mimdp_program
from mimdp.expressions import ExprError
from mimdp.models import ModelError
from mimdp.synthesis import SynthesisError, synthesize
from mimdp.transform import TransformError

SEED = 2024
PROGRAMS = 100
DIGEST = "fb083bb59e825ff3b2e5d06aef8adcace407dd214244f024564db44d36bf23bf"


def _serialised(program, query) -> str:
    """One line of JSON: per result its ``to_json_dict()`` and its exact
    strategy as ``[choice index, weight as a fraction string]`` pairs per
    state, or ``[error type, error text]``."""
    try:
        results = synthesize(program, query)
    except (SynthesisError, ModelError, TransformError, ExprError) as e:
        out = [type(e).__name__, str(e)]
    else:
        out = []
        for r in results:
            d = r.to_json_dict()
            d["exact_strategy"] = None if r.strategy is None else [
                [[a, str(w)] for a, w in dist.items()] for dist in r.strategy.choice_probs
            ]
            out.append(d)
    return json.dumps(out, sort_keys=True)


def corpus_digest(seed: int = SEED, count: int = PROGRAMS) -> str:
    rng = random.Random(seed)
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(count):
            program, query = random_mimdp_program(rng)
            digest.update(_serialised(program, query).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_synthesis_on_the_random_corpus_is_unchanged():
    assert corpus_digest() == DIGEST
