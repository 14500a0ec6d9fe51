from hypothesis import settings

# `pytest --hypothesis-profile=deep` runs every Hypothesis test that sets no
# max_examples of its own, the market fuzz among them, on 2,000 examples
settings.register_profile("deep", max_examples=2000, deadline=None)
