"""rw-fence is MPI-legal: generator invariants and a strict sanitizer run.

Run with ``python -m pytest perfbench``.
"""

from dataclasses import replace

import numpy as np
import pytest

import rwfence
from repro import analysis
from repro.mpi.errors import RMARaceError
from repro.runtime.scheduler import RankFailedError


@pytest.mark.parametrize("seed", range(6))
def test_generator_invariants(seed):
    script = rwfence.generate(seed)
    assert rwfence.legality_problems(script) == []
    puts = script.count(rwfence.PUT)
    share = puts / (puts + script.count(rwfence.GET))
    assert 0.30 <= share <= 0.40


def test_generate_is_pure_in_its_seed():
    a, b = rwfence.generate(7), rwfence.generate(7)
    assert a.init.tobytes() == b.init.tobytes()
    assert all(
        x.tobytes() == y.tobytes()
        for ea, eb in zip(a.ops, b.ops)
        for x, y in zip(ea, eb)
    )


def _small(seed=3):
    return rwfence.generate(seed, epochs=4, ops_per_rank=30)


def test_small_instance_passes_strict_sanitizer():
    script = _small()
    outputs = []
    for cached in (False, True):
        with analysis.sanitize(strict=True) as san:
            results, _ = rwfence.run(script, cached)
        assert san.violations == []
        outputs.append([(r[0].tobytes(), r[1].tobytes()) for r in results])
    assert outputs[0] == outputs[1]


def _with_second_writer(script):
    """``script`` with one put of epoch 1 duplicated onto another rank."""
    epoch = [rows.copy() for rows in script.ops[1]]
    for r, rows in enumerate(epoch):
        puts = rows[rows[:, 0] == rwfence.PUT]
        if len(puts):
            other = (r + 1) % script.nprocs
            epoch[other] = np.vstack([epoch[other], puts[:1]])
            break
    return replace(script, ops=[script.ops[0], epoch, *script.ops[2:]])


def test_checks_catch_a_second_writer():
    bad = _with_second_writer(_small())
    assert rwfence.legality_problems(bad)
    with pytest.raises(RankFailedError) as err:
        with analysis.sanitize(strict=True):
            rwfence.run(bad, cached=False)
    assert isinstance(err.value.__cause__, RMARaceError)
