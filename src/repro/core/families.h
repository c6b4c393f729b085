/* Family codes shared by the C sources: the order of
 * repro.core.models.FAMILIES, which is also the kind id stored in K. */
#ifndef REPRO_FAMILIES_H
#define REPRO_FAMILIES_H

enum { LINEAR, RADICAL, QUADRATIC2, QUADRATIC3, EXPONENTIAL, POWER, LOGARITHMIC, CUBIC_ODD, N_KINDS };

#endif
