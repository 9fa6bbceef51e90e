import pytest

from igusazeta.errors import BudgetExceeded, InconsistentLengths, ParseError, VariableError

ERRORS = [InconsistentLengths, BudgetExceeded, ParseError, VariableError]


@pytest.mark.parametrize("cls", ERRORS)
def test_an_unknown_keyword_is_a_type_error_that_names_it(cls):
    with pytest.raises(TypeError, match="'volume'"):
        cls("message", volume=3)


@pytest.mark.parametrize("cls", ERRORS)
def test_each_observed_name_is_none_when_not_given(cls):
    err = cls("message")
    assert cls.observed
    assert all(getattr(err, name) is None for name in cls.observed)
    assert str(err) == "message"

