// Function attributes for the per-request hot path.
#pragma once

// Marks a function as replay-loop hot for detlint's purity passes (see
// tools/detlint/passes.hpp): inside its body, allocation, throw, IO, lock
// acquisition, and calls that resolve to virtual methods become findings
// unless each carries a reasoned `// detlint:allow(...)`. Expands to
// nothing — it is a lint annotation, not a codegen attribute, so marking a
// function hot can never perturb the golden masters. For hot code in free
// functions where no declaration can carry the marker, use a
// `// detlint:hot-begin` .. `// detlint:hot-end` comment region instead.
#define CDN_HOT
