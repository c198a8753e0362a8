"""Error hierarchy semantics + deterministic RNG streams."""

import numpy as np
import pytest

from repro.common import errors
from repro.common.rng import make_rng


def test_arch_faults_are_repro_errors():
    for exc in (errors.DataAbort(0x1000, "x"), errors.PrefetchAbort(0, "y"),
                errors.UndefinedInstruction("z")):
        assert isinstance(exc, errors.ArchFault)
        assert isinstance(exc, errors.ReproError)


def test_trap_modes():
    assert errors.DataAbort(0, "r").trap_mode == "abt"
    assert errors.PrefetchAbort(0, "r").trap_mode == "abt"
    assert errors.UndefinedInstruction("r").trap_mode == "und"


def test_data_abort_message_carries_context():
    e = errors.DataAbort(0x9000_0000, "permission fault", write=True)
    assert "0x90000000" in str(e)
    assert "write" in str(e)
    assert e.vaddr == 0x9000_0000 and e.write


def test_rng_same_seed_same_stream():
    a = make_rng(42, stream="x").random(8)
    b = make_rng(42, stream="x").random(8)
    assert (a == b).all()


def test_rng_streams_decorrelated():
    a = make_rng(42, stream="x").random(8)
    b = make_rng(42, stream="y").random(8)
    assert not (a == b).all()


def test_rng_default_seed_stable():
    a = make_rng(stream="z").random(4)
    b = make_rng(stream="z").random(4)
    assert (a == b).all()


def test_rng_seed_changes_stream():
    a = make_rng(1, stream="x").random(8)
    b = make_rng(2, stream="x").random(8)
    assert not (a == b).all()
