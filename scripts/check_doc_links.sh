#!/usr/bin/env sh
# Fails if any relative markdown link in README.md or docs/ points at a
# file that does not exist, or at a `#anchor` that no heading of the
# target markdown file (the linking file itself for a bare `#anchor`)
# produces. External links (http/https/mailto) are skipped — CI has no
# network.
#
# Usage: scripts/check_doc_links.sh  (from the repository root)
set -eu

# ASCII only: the slugs below treat every other byte as punctuation.
export LC_ALL=C

# The anchors GitHub gives a markdown file's headings, one per line: the
# heading text lowercased, with every character but letters, digits,
# spaces, '-' and '_' dropped, then spaces turned into '-'. Headings
# inside fenced code blocks do not count.
anchors() {
    awk '/^[ ]*```/ { fence = !fence; next } !fence && /^#+ / { sub(/^#+ +/, ""); print }' "$1" |
        tr 'A-Z' 'a-z' | sed 's/[^a-z0-9 _-]//g; s/ /-/g'
}

status=0
for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    # Extract inline markdown link targets: [text](target)
    grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' |
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path=${target%%#*}
        if [ -z "$path" ]; then
            file=$doc
        else
            file=$dir/$path
        fi
        if ! [ -e "$file" ]; then
            echo "::error file=$doc::dead relative link: $target"
            # Propagate failure out of the while-subshell via a marker file.
            touch .doc_link_failure
            continue
        fi
        case "$target" in
        *'#'*) ;;
        *) continue ;;
        esac
        case "$file" in
        *.md)
            if ! anchors "$file" | grep -qxF "${target#*#}"; then
                echo "::error file=$doc::no heading for anchor: $target"
                touch .doc_link_failure
            fi
            ;;
        esac
    done
done

if [ -e .doc_link_failure ]; then
    rm -f .doc_link_failure
    status=1
fi
exit $status
