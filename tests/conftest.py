import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps ``module.name`` for this test and
    returns the list each call appends its arguments to, so a test sees
    which side of a gate ran."""

    def install(module, name):
        calls = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install


@pytest.fixture
def mixed_nquads(tmp_path):
    """A small N-Quads file: blank nodes, a literal with a language tag
    and one with a datatype, the default graph and two named graphs, a
    comment line and a blank line."""
    path = tmp_path / "mixed.nq"
    path.write_text(
        "# default graph\n"
        "_:a <http://example.org/vocab#knows> _:b .\n"
        '_:b <http://example.org/vocab#name> "Bea"@en .\n'
        "\n"
        "_:a <http://example.org/vocab#in> <http://example.org/g1> <http://example.org/g1> .\n"
        '_:c <http://example.org/vocab#age> "7"^^<http://www.w3.org/2001/XMLSchema#integer> <http://example.org/g1> .\n'
        "_:c <http://example.org/vocab#knows> _:a <http://example.org/g2> .\n",
        encoding="utf-8",
    )
    return str(path)
