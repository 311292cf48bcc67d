// Fixture for the --stale audit: one live suppression (kept) and one
// stale suppression (reported).
namespace fixture {

// Live: the rule really fires on the line below, so the comment earns
// its keep.
// mris-analyze: allow(no-float)
float narrow = 0.0f;

// Stale: nothing on this line (or the next) triggers no-float anymore —
// the audit reports exactly this comment.
int widened = 0;  // mris-analyze: allow(no-float)

}  // namespace fixture
