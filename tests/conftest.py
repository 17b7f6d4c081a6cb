import pytest

from ismlab import GuidanceSpec, MixtureOracle, SplatGenerator, make_schedule


@pytest.fixture(scope="session")
def schedule():
    return make_schedule(1000)


@pytest.fixture(scope="session")
def tiny_schedule():
    # T=2 with constant beta 0.5: alpha_bar = [1, 0.5, 0.25] exactly
    return make_schedule(2, 0.5, 0.5)


@pytest.fixture()
def mixture3():
    return MixtureOracle(
        means=[[1.0, 0.0], [-0.5, 0.8], [0.2, -1.0]],
        sigmas=[0.3, 0.2, 0.4],
        weights=[0.5, 0.3, 0.2],
        labels={"a": [0], "b": [1], "c": [2], "ab": [0, 1]},
    )


@pytest.fixture()
def bimodal():
    return MixtureOracle(
        means=[[1.0, 0.0], [-1.0, 0.0]],
        sigmas=[0.2, 0.2],
        weights=[0.5, 0.5],
        labels={"right": [0], "left": [1]},
    )


@pytest.fixture()
def point_oracle():
    # near-degenerate single component at an off-axis mean
    return MixtureOracle(
        means=[[0.6, -0.3]], sigmas=[1e-4], weights=[1.0], labels={"m": [0]})


@pytest.fixture()
def guide_a():
    return GuidanceSpec(positive="a", scale=7.5)


@pytest.fixture()
def unconditional():
    return GuidanceSpec(positive=None, scale=1.0)


@pytest.fixture()
def corrupt_backward(monkeypatch):
    """Scale the first analytic partial of every splat backward pass by 1.01,
    a fault the renderer finite-difference check must catch."""
    backward = SplatGenerator.backward

    def scaled(self, view, grad_output):
        grad = backward(self, view, grad_output).copy()
        grad[0] *= 1.01
        return grad

    monkeypatch.setattr(SplatGenerator, "backward", scaled)
