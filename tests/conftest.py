import pytest

from revcomp import asymptotic


@pytest.fixture(autouse=True)
def rows_bracket_their_counts():
    """Every ``gamma_k`` row any test makes, through the library or the
    CLI, has ``1 <= lower <= blocks``.  An auto or exact row is proved
    exactly when ``lower == blocks``; an explicit greedy or closed-form row
    carries ``lower`` 1 and is never proved."""
    rows = asymptotic._rows

    def checked(channel, epsilon, ks, solver):
        result = rows(channel, epsilon, ks, solver)
        for row in result:
            assert 1 <= row.lower <= row.block_count, row
            if solver in ("auto", "exact"):
                assert row.proved == (row.lower == row.block_count), row
            else:
                assert (row.lower, row.proved) == (1, False), row
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotic, "_rows", checked)
        yield
