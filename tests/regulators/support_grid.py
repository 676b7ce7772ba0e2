"""A (v_out, v_in) grid for pinning ``supports_output_voltage`` to
``input_power``'s range checks, edges included."""

import numpy as np

from repro.errors import OperatingRangeError

#: Output loads at which the answer is compared [W].
LOADS_W = (0.0, 1e-3, 10e-3)


def accepts(regulator, v_out, v_in, p_out=0.0):
    """Whether ``input_power`` accepts the operating point."""
    try:
        regulator.input_power(v_out, p_out, v_in=v_in)
    except OperatingRangeError:
        return False
    return True


def _with_neighbours(values):
    out = []
    for v in values:
        out += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return out


def support_grid(regulator, input_edges):
    """Grid points plus each range edge and its float neighbours.

    ``input_edges(v_in)`` lists the output voltages where the
    converter's input-dependent limit sits for that input.
    """
    v_ins = np.concatenate([np.linspace(0.05, 1.6, 32), [0.30, 1.2]])
    v_outs = list(np.linspace(0.0, 1.6, 33)) + _with_neighbours(
        [regulator.min_output_v, regulator.max_output_v]
    )
    points = []
    for v_in in v_ins:
        for v_out in v_outs + _with_neighbours(input_edges(float(v_in))):
            points.append((float(v_out), float(v_in)))
    points.append((float("nan"), 1.2))
    return points
