from hypothesis import settings

# a fixed example sequence, no example database, no per-example deadline on a
# shared machine.  What is fixed is the sequence for a given set of imported
# modules: Hypothesis also draws literal constants mined from the modules
# already imported, so a property's examples can depend on which tests ran
# before it.  A new property must pass in a full tier-1 run, not only in its
# own file.
settings.register_profile("sidonor", derandomize=True, database=None, deadline=None)
settings.load_profile("sidonor")
