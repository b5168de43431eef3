#!/bin/sh
# checkdocs fails when any package lacks a doc comment: library packages
# need "// Package <name> ..." above the package clause, commands under
# cmd/ need a comment block directly above "package main" (the godoc
# synopsis for the binary). Every internal package and command needs
# exactly one row in ARCHITECTURE.md's package map. Packages whose
# exported surface is a public contract (internal/serve, and
# internal/sweep, whose types the root facade re-exports) additionally
# require a doc comment on every exported identifier, via
# scripts/checkexported. Last, scripts/checkreach fails on an exported
# function that no binary reaches. Run via `make docscheck`; part of
# `make check`.
set -eu
cd "$(dirname "$0")/.."

missing=$(go list -f '{{.ImportPath}}|{{.Name}}|{{.Dir}}' . ./internal/... | \
while IFS='|' read -r path name dir; do
	found=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		if grep -q "^// Package $name " "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "$path (want '// Package $name ...')"
	fi
done)

# Commands: some non-test file must carry a comment line directly above
# its "package main" clause.
cmd_missing=$(go list -f '{{.ImportPath}}|{{.Dir}}' ./cmd/... | \
while IFS='|' read -r path dir; do
	found=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		if awk 'prev ~ /^\/\// && /^package main$/ { found = 1 } { prev = $0 }
			END { exit !found }' "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "$path (want a '// ...' doc comment directly above 'package main')"
	fi
done)

if [ -n "$missing" ] || [ -n "$cmd_missing" ]; then
	echo "checkdocs: packages missing a package doc comment:"
	{ echo "$missing"; echo "$cmd_missing"; } | sed '/^$/d; s/^/  /'
	exit 1
fi

# Package map: one row per internal package and command, in the section
# of ARCHITECTURE.md that starts at "## Package map".
map=$(awk '/^## Package map/ { on = 1; next } /^## / { on = 0 } on' ARCHITECTURE.md)
unmapped=$(go list -f '{{.ImportPath}}' ./internal/... ./cmd/... | sed 's|^sarmany/||' | \
while read -r rel; do
	n=$(printf '%s\n' "$map" | grep -c "^| \`$rel\` |" || true)
	if [ "$n" -ne 1 ]; then
		echo "$rel ($n rows)"
	fi
done)
if [ -n "$unmapped" ]; then
	echo "checkdocs: packages without exactly one row in ARCHITECTURE.md's package map:"
	echo "$unmapped" | sed 's/^/  /'
	exit 1
fi

# Exported-identifier coverage for the serving layer's and the sweep
# engine's public surfaces.
go run ./scripts/checkexported internal/serve internal/sweep

# Reachability: every exported function is reached by some binary.
go run ./scripts/checkreach

echo "checkdocs: all packages documented and mapped, every exported function reached"
