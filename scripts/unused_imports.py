#!/usr/bin/env python3
"""Fail when a module imports a name it never reads.

Usage: python scripts/unused_imports.py FILE...

Each file is parsed with ``ast``; a name bound by an import statement
(``from __future__`` aside) must appear as a name somewhere else in the
module.  Prints one ``file:line: name`` line per unused import and exits 1
if there is any.  Package ``__init__`` modules re-export their imports, so
leave them off the command line.
"""

import ast
import sys


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def main(paths: list[str]) -> int:
    found = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line, name in unused_imports(fh.read()):
                print(f"{path}:{line}: {name} is imported and never read")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
