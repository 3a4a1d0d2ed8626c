#pragma once  // ddanalyze: guard-ok(fixture: generated header)

struct Generated {};
