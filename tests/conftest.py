from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the ci profile with 20x the examples, for property tests whose bits rest on
# how nans propagate or on block boundaries (`pytest tests/test_map_kernels.py
# --hypothesis-profile=thorough`; CI's list is in .github/workflows/tests.yml)
settings.register_profile("thorough", settings.get_profile("ci"), max_examples=2_000)
settings.load_profile("ci")
