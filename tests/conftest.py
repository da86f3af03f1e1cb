import math
import re

import numpy as np
import pytest

from revcomp import ValidationError, asymptotic


@pytest.fixture(autouse=True)
def rows_bracket_their_counts():
    """Every ``gamma_k`` row any test makes, through the library or the
    CLI and on every solver, has ``1 <= lower <= blocks`` and is proved
    exactly when ``lower == blocks``."""
    rows = asymptotic._rows

    def checked(channel, epsilon, ks, solver):
        result = rows(channel, epsilon, ks, solver)
        for row in result:
            assert 1 <= row.lower <= row.block_count, row
            assert row.proved == (row.lower == row.block_count), row
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotic, "_rows", checked)
        yield


@pytest.fixture
def refuses_bad_integers():
    """``check(call, valid, name, below, message)``: ``call`` of one integer
    argument refuses a float, a bool and a numpy float with
    ``{name} must be an integer, got {value!r}``, refuses the int ``below``
    with exactly ``message``, and gives ``np.int64(valid)`` the result of
    the plain int ``valid``."""
    def check(call, valid, name, below, message):
        for bad in (valid + 0.5, float(valid), True, False, np.float64(valid)):
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"):
                call(bad)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(below)
        assert call(np.int64(valid)) == call(valid)
    return check


@pytest.fixture
def refuses_outside_unit_interval():
    """``check(call, name)``: ``call`` of one [0, 1] argument refuses values
    below 0 and above 1, NaN and a bool with ``{name} must lie in [0, 1],
    got {value!r}``."""
    def check(call, name):
        for bad in (-0.1, 1.5, math.nan, -math.inf, True):
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(name)} must lie in \\[0, 1\\], got {re.escape(repr(bad))}$"):
                call(bad)
    return check
