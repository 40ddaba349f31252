#!/bin/sh
# Runs the installed bo-soliton console script, the [project.scripts] entry
# point that `pip install` makes; the tier-1 tests call cli.main on
# PYTHONPATH=src instead.  validate is the one command that imports oracle
# and mpmath, lazily, so an install without mpmath fails only there;
# --with-pde also runs pde.run and explicit_solution, and the README's
# validate run (about 0.5 s) runs every check at N <= 8.  The pole-residue
# calculus lives with the tests, so the install holds no
# bo_soliton.rational.
#
# Usage: sh ci/console_script.sh DIR   (DIR takes the scratch files)
set -eu
dir=$1
python -c "import importlib.util as u; assert u.find_spec('bo_soliton.rational') is None"
bo-soliton --help
printf 'x,eta\n-1,1\n1,0.5\n' > "$dir/params.csv"
bo-soliton spectrum "$dir/params.csv" --out "$dir/spec.csv"
# a non-finite parameter row is a domain error: exit code 3
printf 'x,eta\n-1,1\nnan,0.5\n' > "$dir/nan.csv"
status=0; bo-soliton spectrum "$dir/nan.csv" --out "$dir/nan_spec.csv" || status=$?; test "$status" -eq 3
bo-soliton validate --n 3 --trials 2 --seed 0 --with-pde
bo-soliton validate --n 8 --trials 25 --seed 42
