from hypothesis import settings

# CI selects this profile with --hypothesis-profile=ci: every run draws
# the same examples, and tests that set no max_examples draw three times
# the default.
settings.register_profile("ci", derandomize=True, max_examples=300)
