// Analyzer self-test fixture: iterates a member whose unordered type
// is declared only in the sibling header. This file is never compiled.
#include "mem/table.hh"

namespace fixture
{

long
Table::total() const
{
    long sum = 0;
    for (const auto &kv : rows_) // hopp-analyze-expect(unordered-iter)
        sum += kv.second;
    return sum;
}

} // namespace fixture
