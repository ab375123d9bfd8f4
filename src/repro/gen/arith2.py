"""Further arithmetic generators: carry-lookahead, Booth, barrel shifter.

These widen the pool of structurally diverse implementations for
equivalence-checking workloads: a carry-lookahead adder against the ripple
adder, a radix-2 Booth-recoded multiplier against the array multiplier, and
a logarithmic barrel shifter against the ALU's single-step shift.
"""

from __future__ import annotations

from typing import List, Optional

from ..circuit.netlist import Circuit, FALSE, lit_not
from ..errors import CircuitError
from .arith import _full_adder


def carry_lookahead_adder(width: int, name: Optional[str] = None,
                          with_carry_in: bool = False) -> Circuit:
    """``width``-bit carry-lookahead adder (flat generate/propagate).

    Carries are computed directly from prefix G/P terms:
    ``c[i+1] = g_i | p_i&g_{i-1} | ... | p_i&...&p_0&c_0`` — shallow and
    wide, the structural opposite of the ripple chain.
    """
    if width < 1:
        raise CircuitError("adder width must be >= 1")
    c = Circuit(name or "cla{}".format(width))
    a = [c.add_input("a{}".format(i)) for i in range(width)]
    b = [c.add_input("b{}".format(i)) for i in range(width)]
    carry_in = c.add_input("cin") if with_carry_in else FALSE
    gen = [c.add_and(a[i], b[i]) for i in range(width)]
    prop = [c.xor_(a[i], b[i]) for i in range(width)]
    carries: List[int] = [carry_in]
    for i in range(width):
        # c[i+1] = g_i | (p_i & g_{i-1}) | ... | (p_i..p_0 & c_0)
        terms: List[int] = [gen[i]]
        chain = prop[i]
        for j in range(i - 1, -1, -1):
            terms.append(c.add_and(chain, gen[j]))
            chain = c.add_and(chain, prop[j])
        terms.append(c.add_and(chain, carry_in))
        carries.append(c.or_many(terms))
    for i in range(width):
        c.add_output(c.xor_(prop[i], carries[i]), "s{}".format(i))
    c.add_output(carries[width], "cout")
    return c


def _twos_complement_add(c: Circuit, acc: List[int], addend: List[int],
                         negate: int) -> List[int]:
    """acc + (addend ^ negate) + negate, fixed width (wrap-around)."""
    carry = negate
    out: List[int] = []
    for i in range(len(acc)):
        bit = c.xor_(addend[i], negate)
        s, carry = _full_adder(c, acc[i], bit, carry)
        out.append(s)
    return out


def booth_multiplier(width: int, name: Optional[str] = None) -> Circuit:
    """``width x width`` unsigned multiplier with radix-2 Booth recoding.

    Each step examines adjacent multiplier bits (b[i], b[i-1]) and adds,
    subtracts or skips the shifted multiplicand:
    ``01 -> +A``, ``10 -> -A``, ``00``/``11`` -> nothing.  Functionally
    identical to :func:`repro.gen.arith.array_multiplier`, structurally
    dominated by subtractors and recode logic instead of the AND-array.
    """
    if width < 1:
        raise CircuitError("multiplier width must be >= 1")
    c = Circuit(name or "booth{}x{}".format(width, width))
    a = [c.add_input("a{}".format(i)) for i in range(width)]
    b = [c.add_input("b{}".format(i)) for i in range(width)]
    n_out = 2 * width
    # Accumulator over the full product width.
    acc: List[int] = [FALSE] * n_out
    prev = FALSE
    for i in range(width + 1):
        cur = b[i] if i < width else FALSE
        add_term = c.add_and(lit_not(cur), prev)   # 01: add
        sub_term = c.add_and(cur, lit_not(prev))   # 10: subtract
        # Shifted multiplicand, gated per step.
        shifted = [FALSE] * i + a + [FALSE] * (n_out - i - width)
        shifted = shifted[:n_out]
        gated = [c.add_and(bit, c.or_(add_term, sub_term))
                 for bit in shifted]
        acc = _twos_complement_add(c, acc, gated, sub_term)
        prev = cur
    for i, bit in enumerate(acc):
        c.add_output(bit, "p{}".format(i))
    return c


def barrel_shifter(width: int, name: Optional[str] = None,
                   rotate: bool = False) -> Circuit:
    """Logarithmic left barrel shifter (or rotator) for ``width`` bits.

    ``ceil(log2(width))`` mux stages, each conditionally shifting by a
    power of two.  Out-shifted bits are dropped (or wrapped for
    ``rotate=True``).
    """
    if width < 1:
        raise CircuitError("shifter width must be >= 1")
    c = Circuit(name or ("rot{}" if rotate else "shl{}").format(width))
    data = [c.add_input("d{}".format(i)) for i in range(width)]
    n_sel = max(1, (width - 1).bit_length())
    sel = [c.add_input("sh{}".format(k)) for k in range(n_sel)]
    bus = list(data)
    for k in range(n_sel):
        amount = 1 << k
        shifted: List[int] = []
        for i in range(width):
            src = i - amount
            if src >= 0:
                shifted.append(bus[src])
            elif rotate:
                shifted.append(bus[src % width])
            else:
                shifted.append(FALSE)
        bus = [c.mux_(sel[k], shifted[i], bus[i]) for i in range(width)]
    for i, bit in enumerate(bus):
        c.add_output(bit, "y{}".format(i))
    return c
