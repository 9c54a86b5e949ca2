import sys

from perfbench.run import main

sys.exit(main())
