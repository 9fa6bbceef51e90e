import pytest

# reference_walk is a helper module, not a test module: without this, pytest
# leaves its asserts plain and python -O strips them.
pytest.register_assert_rewrite("reference_walk")
