// Seeds units-raw-mix: Tick arithmetic against Cycles / byte counts.
using Tick = unsigned long long;
using Cycles = unsigned long long;

Tick
elapsed(Tick period, Cycles spent, unsigned long long rowBytes)
{
    Tick total = spent * period;      // line 8: Cycles * Tick, raw
    total += period + rowBytes;       // line 9: Tick + bytes, raw
    total += cyclesToTicks(spent, period); // ok: named helper
    return total;
}
