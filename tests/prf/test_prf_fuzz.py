"""Hypothesis fuzz: random PRF programs vs a NumPy register file."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prf import PrfMachine, RegisterFile

REGS = ["R0", "R1", "R2", "R3"]
SHAPE = (2, 8)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 10))
    prog = []
    for _ in range(n):
        op = draw(st.sampled_from(["vadd", "vsub", "vmul", "vaxpy", "vscale", "vcopy"]))
        dst = draw(st.sampled_from(REGS))
        a = draw(st.sampled_from(REGS))
        b = draw(st.sampled_from(REGS))
        s = draw(st.floats(-2, 2, allow_nan=False))
        prog.append((op, dst, a, b, s))
    return prog


@given(
    programs(),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_random_prf_programs(program, seed):
    rng = np.random.default_rng(seed)
    machine = PrfMachine(RegisterFile(capacity_kb=4))
    ref: dict[str, np.ndarray] = {}
    for name in REGS:
        machine.rf.define(name, *SHAPE)
        data = rng.uniform(-1, 1, SHAPE)
        machine.rf[name].store(data)
        ref[name] = data.copy()

    for op, dst, a, b, s in program:
        if op == "vadd":
            machine.vadd(dst, a, b)
            ref[dst] = ref[a] + ref[b]
        elif op == "vsub":
            machine.vsub(dst, a, b)
            ref[dst] = ref[a] - ref[b]
        elif op == "vmul":
            machine.vmul(dst, a, b)
            ref[dst] = ref[a] * ref[b]
        elif op == "vaxpy":
            machine.vaxpy(dst, s, a, b)
            ref[dst] = s * ref[a] + ref[b]
        elif op == "vscale":
            machine.vscale(dst, s, a)
            ref[dst] = s * ref[a]
        elif op == "vcopy":
            machine.vcopy(dst, a)
            ref[dst] = ref[a].copy()

    for name in REGS:
        assert np.allclose(machine.rf[name].load(), ref[name]), name
    # reductions agree too
    assert machine.vsum("R0") == np.float64(ref["R0"].sum()) or np.isclose(
        machine.vsum("R0"), ref["R0"].sum()
    )
    # cycle accounting is consistent: every instruction cost >= 1 cycle
    assert machine.stats.cycles >= machine.stats.instructions
