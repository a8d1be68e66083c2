import numpy as np
import pytest

from liftkit import resolve_map


@pytest.fixture(scope="session")
def shear3():
    return resolve_map("shear3")


@pytest.fixture(scope="session")
def expmap():
    return resolve_map("expmap")


@pytest.fixture(scope="session")
def polar_exp():
    return resolve_map("polar_exp")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def registry_file(tmp_path):
    text = """\
[map hump]
dim_in = 2
dim_out = 2
components = x + y^3 ; y
domain = 25 - x^2 - y^2

[weight wlin]
family = affine
a = 1
b = 1

[weight wcompact]
family = power:1,1,0.5

[path arc]
kind = expression
components = cos(t) ; sin(t)
domain = 0, 3.141592653589793

[path diag]
kind = segment
start = 0, 0
end = 1, 1

[path ring]
kind = loop
center = 0, 0
radius = 1

[implicit cubic]
map = cubic_implicit
x_dim = 1
w = 0
"""
    path = tmp_path / "registry.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)
