import sys

# The package needs numpy only. A None entry makes every `import scipy` in
# this process fail, so a scipy use anywhere fails the suite.
sys.modules["scipy"] = None
