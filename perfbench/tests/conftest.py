import os
import sys

# the package under test lives in the repository's src/
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))
