import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REFERENCE_TEST_DIR = "/root/reference/test"
TESTDATA = "/root/testdata"


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    their session; library code never calls ray.init)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def set_fanout(monkeypatch):
    """The one seam for a test that needs a given partition layout:
    ``set_fanout(n)`` makes every exchange the test starts afterwards
    split into ``n`` partitions (stage functions ask ``exchange.fanout``
    at call time, on the driver). ``set_fanout.asked`` counts the asks."""
    from jsschema_ray.stages import exchange

    def force(n: int) -> None:
        def fanout(rows: int = 0) -> int:
            force.asked += 1
            return n

        monkeypatch.setattr(exchange, "fanout", fanout)

    force.asked = 0
    return force
