// Analyzer self-test fixture: every line carrying an expect marker
// comment must produce exactly that diagnostic on that line. This
// file is never compiled.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

struct Node;

struct Fixture
{
    std::unordered_map<int, long> counts_;
    std::unordered_set<unsigned> seen_;
    std::map<Node *, int> byNode_; // hopp-analyze-expect(ptr-key)
    std::set<Node *> nodes_;       // hopp-analyze-expect(ptr-key)

    void
    run()
    {
        std::srand(42);        // hopp-analyze-expect(raw-rand)
        int x = std::rand();   // hopp-analyze-expect(raw-rand)
        std::random_device rd; // hopp-analyze-expect(random-device)
        auto wall =
            std::chrono::system_clock::now(); // hopp-analyze-expect(wall-clock)
        auto mono =
            std::chrono::steady_clock::now(); // hopp-analyze-expect(wall-clock)
        long stamp = time(nullptr); // hopp-analyze-expect(wall-clock)
        long cpu = clock();         // hopp-analyze-expect(wall-clock)

        for (const auto &kv : counts_) // hopp-analyze-expect(unordered-iter)
            x += static_cast<int>(kv.second);

        for (auto it = seen_.begin(); // hopp-analyze-expect(unordered-iter)
             it != seen_.end(); ++it)
            x += static_cast<int>(*it);

        (void)rd;
        (void)wall;
        (void)mono;
        (void)stamp;
        (void)cpu;
        (void)x;
    }

    unsigned long long
    typeDiscipline(Tick tick, unsigned long long addr)
    {
        auto vpn = addr >> pageShift;      // hopp-analyze-expect(page-shift)
        auto base = vpn << pageShift;      // hopp-analyze-expect(page-shift)
        return base + tick.raw();          // hopp-analyze-expect(raw)
    }
};
