// Analyzer self-test fixture: an unordered member declared here and
// iterated from the sibling table.cc — the unordered-iter rule reads
// the sibling header's declarations. This file is never compiled.
#pragma once

#include <unordered_map>

namespace fixture
{

class Table
{
  public:
    long total() const;

  private:
    std::unordered_map<int, long> rows_;
};

} // namespace fixture
